//! The client side: connect, submit a batch, collect responses.
//!
//! Batches are deduplicated before they hit the wire: entries with the
//! same content address ([`crate::protocol::Request::cache_key`]) are
//! submitted once and the shared verdict is fanned back out to every
//! entry. That keeps a corpus submission from paying for the same
//! program twice even against a cold server.
//!
//! Unique entries travel as pipelined `batch` frames by default — one
//! frame per batch (chunked under a soft byte budget) instead of one
//! line per request, which collapses the per-request write/syscall
//! round-trips against a warm server.
//!
//! Submission is resilient by opt-in ([`SubmitOptions`]): a lost
//! connection, a silent server (per-request timeout), or a typed
//! `overloaded` shed triggers a reconnect with exponential backoff and
//! deterministic jitter, re-asking only the still-unanswered entries.
//! Retries are bounded and only ever re-send idempotent work: a shed
//! request was never executed (always safe), and cacheable checks are
//! pure functions of their content address — but a `no_cache` request
//! that may already have reached the server is *not* re-sent, because
//! the caller asked for exactly one fresh execution. Every retry emits
//! a `client_retry` event through `kiss-obs`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use kiss_obs::span::splitmix64;
use kiss_obs::{Event, Obs, TraceId};

use crate::protocol::{decode_response, Batch, CacheStatus, Request, Response, ServeSnapshot};

/// How long a resilient read blocks before re-checking its deadline.
const CLIENT_READ_POLL: Duration = Duration::from_millis(50);

/// Soft byte budget one batch frame aims under, comfortably inside the
/// server's hard [`crate::protocol::MAX_FRAME_BYTES`] cap even after
/// the frame's own envelope is added.
const BATCH_BYTE_BUDGET: usize = 256 * 1024;

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A unix socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7878`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl Endpoint {
    /// Opens one connection, returning the read and write halves (the
    /// reader polls with a short timeout so resilient reads can check
    /// their deadline). Public so load harnesses can drive raw
    /// connections themselves.
    pub fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                stream.set_read_timeout(Some(CLIENT_READ_POLL))?;
                let reader = stream.try_clone()?;
                Ok((Box::new(reader), Box::new(stream)))
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                // Small request frames on a round-trip protocol: Nagle
                // would trade tens of milliseconds for nothing.
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(CLIENT_READ_POLL))?;
                let reader = stream.try_clone()?;
                Ok((Box::new(reader), Box::new(stream)))
            }
        }
    }
}

/// Client-side resilience policy for [`submit_batch_with`].
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Reconnect attempts after the first try (0 = the legacy
    /// fail-fast behaviour of [`submit_batch`]).
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter mixed into each backoff.
    pub jitter_seed: u64,
    /// Give up on an attempt when no response arrives for this long
    /// (`None` = wait forever, as a plain read would).
    pub request_timeout: Option<Duration>,
    /// Send pipelined `batch` frames (the default); `false` sends one
    /// line per request.
    pub batch: bool,
    /// Observer receiving `client_retry` events.
    pub obs: Obs,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            retries: 0,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
            request_timeout: None,
            batch: true,
            obs: Obs::off(),
        }
    }
}

impl SubmitOptions {
    /// The wait before retry `attempt` (1-based): exponential backoff
    /// capped at `backoff_cap`, with "equal jitter" — half the window is
    /// guaranteed, half is a deterministic hash of `jitter_seed` and the
    /// attempt, so a fleet of clients sharing a policy but not a seed
    /// does not reconnect in lockstep (and a fixed seed replays exactly).
    fn backoff_before(&self, attempt: u32) -> Duration {
        let base = self
            .backoff
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.backoff_cap);
        let half = base / 2;
        if half.is_zero() {
            return base;
        }
        let jitter_ms = splitmix64(self.jitter_seed ^ u64::from(attempt))
            % (half.as_millis().max(1) as u64 + 1);
        half + Duration::from_millis(jitter_ms)
    }
}

/// How one batch entry was answered, from the entry's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryCache {
    /// The server answered from its cache.
    Hit,
    /// The server executed the check.
    Miss,
    /// The entry never hit the wire: an earlier entry in the same batch
    /// had the same content address, and its verdict was shared.
    Deduped,
    /// Not a cacheable exchange (request-level error).
    None,
}

impl EntryCache {
    /// A stable lowercase name for display.
    pub fn as_str(self) -> &'static str {
        match self {
            EntryCache::Hit => "cache hit",
            EntryCache::Miss => "cache miss",
            EntryCache::Deduped => "dedup",
            EntryCache::None => "no cache",
        }
    }
}

/// One submitted batch, fanned back out to the caller's entries.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One response per input entry, in input order, with the entry's
    /// original id restored.
    pub responses: Vec<Response>,
    /// How each entry was answered, parallel to `responses`.
    pub entry_cache: Vec<EntryCache>,
    /// Distinct requests actually sent over the wire.
    pub unique: usize,
    /// Server cache hits among the wire responses.
    pub hits: u64,
    /// Server cache misses among the wire responses.
    pub misses: u64,
    /// Reconnect attempts the batch needed beyond the first.
    pub retries: u64,
}

/// Submits `requests` as one pipelined batch with the legacy fail-fast
/// policy (no retries, no timeout). See [`submit_batch_with`].
pub fn submit_batch(endpoint: &Endpoint, requests: &[Request]) -> io::Result<BatchOutcome> {
    submit_batch_with(endpoint, requests, &SubmitOptions::default())
}

/// What one wire attempt produced.
struct Attempt {
    /// `(slot, response)` pairs received before the attempt ended.
    answered: Vec<(usize, Response)>,
    /// Why the attempt ended early, if it did.
    failure: Option<AttemptFailure>,
}

enum AttemptFailure {
    /// The connection never opened; nothing was sent.
    Connect(io::Error),
    /// The connection died (or went silent past the request timeout)
    /// after the frames were sent.
    Lost(io::Error),
}

/// Opens one connection, sends the given frames (pipelined as `batch`
/// frames when `batch` is set, one line per request otherwise), and
/// reads until every frame is answered, the peer closes, or the
/// per-request timeout expires with nothing arriving.
fn run_attempt(
    endpoint: &Endpoint,
    frames: &[(usize, Request)],
    timeout: Option<Duration>,
    batch: bool,
) -> Attempt {
    let mut answered = Vec::new();
    let fail = |failure| Attempt { answered: Vec::new(), failure: Some(failure) };
    let (reader, mut writer) = match endpoint.connect() {
        Ok(pair) => pair,
        Err(e) => return fail(AttemptFailure::Connect(e)),
    };
    if batch {
        // Chunk the requests into batch frames under a soft byte
        // budget, so a large corpus never builds a frame the server's
        // hard cap would reject. Each entry is serialized exactly once
        // (escaping the source dominates the cost) and the frames are
        // assembled from the parts with plain copies.
        let mut entries: Vec<String> = Vec::new();
        let mut frame_no = 0usize;
        let mut bytes = 0usize;
        let mut send = |entries: &mut Vec<String>, frame_no: &mut usize| -> io::Result<()> {
            let frame = Batch::frame_json(&format!("b{frame_no}"), entries);
            *frame_no += 1;
            entries.clear();
            writeln!(writer, "{frame}")
        };
        for (slot, request) in frames {
            let entry = request.to_json_as(&format!("q{slot}"));
            if !entries.is_empty() && bytes + entry.len() + 1 > BATCH_BYTE_BUDGET {
                if let Err(e) = send(&mut entries, &mut frame_no) {
                    return fail(AttemptFailure::Lost(e));
                }
                bytes = 0;
            }
            bytes += entry.len() + 1;
            entries.push(entry);
        }
        if !entries.is_empty() {
            if let Err(e) = send(&mut entries, &mut frame_no) {
                return fail(AttemptFailure::Lost(e));
            }
        }
    } else {
        for (slot, request) in frames {
            if let Err(e) = writeln!(writer, "{}", request.to_json_as(&format!("q{slot}"))) {
                return fail(AttemptFailure::Lost(e));
            }
        }
    }
    if let Err(e) = writer.flush() {
        return fail(AttemptFailure::Lost(e));
    }

    let wanted: HashMap<usize, ()> = frames.iter().map(|(slot, _)| (*slot, ())).collect();
    let mut outstanding = frames.len();
    let mut lines = BufReader::new(reader);
    let mut line = String::new();
    // The silence deadline restarts on every response: a batch of slow
    // checks is fine as long as the server keeps answering.
    let mut last_progress = Instant::now();
    while outstanding > 0 {
        line.clear();
        let n = loop {
            match lines.read_line(&mut line) {
                Ok(n) => break n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if let Some(limit) = timeout {
                        if last_progress.elapsed() >= limit {
                            return Attempt {
                                answered,
                                failure: Some(AttemptFailure::Lost(io::Error::new(
                                    io::ErrorKind::TimedOut,
                                    format!(
                                        "no response for {}ms with {outstanding} outstanding",
                                        limit.as_millis()
                                    ),
                                ))),
                            };
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Attempt { answered, failure: Some(AttemptFailure::Lost(e)) },
            }
        };
        if n == 0 {
            return Attempt {
                answered,
                failure: Some(AttemptFailure::Lost(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server closed with {outstanding} responses outstanding"),
                ))),
            };
        }
        if !line.ends_with('\n') {
            // A torn frame: the peer died mid-response.
            return Attempt {
                answered,
                failure: Some(AttemptFailure::Lost(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ))),
            };
        }
        let text = line.trim_end_matches(['\n', '\r']);
        if text.is_empty() {
            continue;
        }
        let response = match decode_response(text) {
            Ok(response) => response,
            Err(e) => {
                return Attempt {
                    answered,
                    failure: Some(AttemptFailure::Lost(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad response frame: {}", e.message()),
                    ))),
                }
            }
        };
        let slot = response
            .id
            .strip_prefix('q')
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|slot| wanted.contains_key(slot));
        let Some(slot) = slot else {
            // A response that names no slot of ours: a late answer from
            // a previous connection's server-side work leaking through a
            // proxy, or a server bug. Ignore it.
            continue;
        };
        last_progress = Instant::now();
        answered.push((slot, response));
        outstanding -= 1;
    }
    Attempt { answered, failure: None }
}

/// Submits `requests` as one pipelined batch: dedup by content address,
/// send every unique frame, then collect responses (in any order) and
/// fan verdicts back out. Entry ids are preserved in the result even
/// though the wire uses positional ids.
///
/// `opts` governs resilience: lost connections, silent servers, and
/// `overloaded` sheds are retried up to `opts.retries` times with
/// exponential backoff, re-sending only still-unanswered idempotent
/// entries (a shed entry is always idempotent to re-ask — it never
/// executed). When retries run out, remaining connection errors are
/// returned and remaining `overloaded` responses are handed to the
/// caller as final verdicts.
///
/// # Errors
///
/// Returns the last connection error once retries are exhausted, or a
/// decode error for a malformed response frame.
pub fn submit_batch_with(
    endpoint: &Endpoint,
    requests: &[Request],
    opts: &SubmitOptions,
) -> io::Result<BatchOutcome> {
    // Dedup: first occurrence of a content address goes on the wire and
    // every entry remembers which wire slot answers it.
    let mut wire: Vec<Request> = Vec::new();
    let mut slot_of_key: HashMap<u128, usize> = HashMap::new();
    let mut slot_of_entry: Vec<usize> = Vec::with_capacity(requests.len());
    let mut deduped: Vec<bool> = Vec::with_capacity(requests.len());
    for request in requests {
        let key = request.cache_key();
        match slot_of_key.get(&key) {
            Some(&slot) => {
                slot_of_entry.push(slot);
                deduped.push(true);
            }
            None => {
                let slot = wire.len();
                slot_of_key.insert(key, slot);
                slot_of_entry.push(slot);
                deduped.push(false);
                let mut request = request.clone();
                // Every wire request carries a trace id, so the server's
                // span stream is reconstructible per request. Minted once
                // per slot: a retried slot keeps its trace across
                // attempts.
                if request.trace.is_none() {
                    request.trace = TraceId::fresh();
                }
                wire.push(request);
            }
        }
    }

    let mut answers: Vec<Option<Response>> = vec![None; wire.len()];
    let mut pending: Vec<usize> = (0..wire.len()).collect();
    let mut retries_used = 0u64;
    let mut attempt_no = 0u32;
    let mut last_error: Option<io::Error> = None;

    while !pending.is_empty() {
        if attempt_no > 0 {
            if attempt_no > opts.retries {
                break;
            }
            let wait = opts.backoff_before(attempt_no);
            let reason = last_error
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "server overloaded".to_string());
            opts.obs.emit(|_| Event::ClientRetry {
                // The attempt about to start: the first retry is the
                // second attempt overall.
                attempt: u64::from(attempt_no) + 1,
                wait_ms: wait.as_millis() as u64,
                reason: reason.clone(),
            });
            retries_used += 1;
            std::thread::sleep(wait);
        }
        attempt_no += 1;

        let frames: Vec<(usize, Request)> =
            pending.iter().map(|&slot| (slot, wire[slot].clone())).collect();
        let attempt = run_attempt(endpoint, &frames, opts.request_timeout, opts.batch);
        let mut next_pending: Vec<usize> = Vec::new();
        let mut shed_this_attempt = false;
        for (slot, response) in attempt.answered {
            if response.is_overloaded() && attempt_no <= opts.retries {
                // Shed before execution: always safe to re-ask. Keep the
                // overloaded response on file in case retries run out.
                shed_this_attempt = true;
                answers[slot] = Some(response);
                next_pending.push(slot);
            } else {
                answers[slot] = Some(response);
            }
        }
        let mut lost_after_send = false;
        match attempt.failure {
            None => last_error = None,
            Some(AttemptFailure::Connect(e)) => {
                // Nothing reached the server; every pending slot may be
                // re-sent, idempotent or not.
                last_error = Some(e);
                for &slot in &pending {
                    if answers[slot].is_none() {
                        next_pending.push(slot);
                    }
                }
            }
            Some(AttemptFailure::Lost(e)) => {
                last_error = Some(e);
                lost_after_send = true;
                for &slot in &pending {
                    if answers[slot].is_some() {
                        continue;
                    }
                    if wire[slot].no_cache {
                        // The server may already be executing (or have
                        // executed) this fresh-run request; re-sending
                        // would double-execute. Surface the loss instead.
                        answers[slot] = Some(Response::error(
                            wire[slot].id.clone(),
                            "connection lost after submit; no_cache request not retried",
                        ));
                    } else {
                        next_pending.push(slot);
                    }
                }
            }
        }
        if shed_this_attempt && !lost_after_send {
            last_error = None;
        }
        next_pending.sort_unstable();
        next_pending.dedup();
        pending = next_pending;
    }

    if !pending.is_empty() {
        // Out of retries. Shed slots keep their overloaded response as
        // the final answer; anything still unanswered is a hard error.
        if pending.iter().any(|&slot| answers[slot].is_none()) {
            return Err(last_error.unwrap_or_else(|| {
                io::Error::other("batch incomplete after retries")
            }));
        }
    }

    let mut hits = 0u64;
    let mut misses = 0u64;
    for answer in answers.iter().flatten() {
        match answer.cache {
            CacheStatus::Hit => hits += 1,
            CacheStatus::Miss => misses += 1,
            CacheStatus::None => {}
        }
    }

    let mut responses = Vec::with_capacity(requests.len());
    let mut entry_cache = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let answer = answers[slot_of_entry[i]].as_ref().expect("all slots answered");
        let mut response = answer.clone();
        response.id = request.id.clone();
        entry_cache.push(if deduped[i] {
            EntryCache::Deduped
        } else {
            match answer.cache {
                CacheStatus::Hit => EntryCache::Hit,
                CacheStatus::Miss => EntryCache::Miss,
                CacheStatus::None => EntryCache::None,
            }
        });
        responses.push(response);
    }

    Ok(BatchOutcome {
        responses,
        entry_cache,
        unique: wire.len(),
        hits,
        misses,
        retries: retries_used,
    })
}

/// Sends one `status` ping and returns the server's answer (verdict
/// `ok`, detail `queue_depth=… cache_entries=… uptime_ms=…`).
///
/// # Errors
///
/// Returns the connection error, a timeout after `timeout` of silence,
/// or a decode error for a malformed response.
pub fn ping(endpoint: &Endpoint, timeout: Duration) -> io::Result<Response> {
    let frames = [(0usize, Request::status("ping"))];
    let mut attempt = run_attempt(endpoint, &frames, Some(timeout), false);
    match attempt.answered.pop() {
        Some((_, response)) => Ok(response),
        None => Err(match attempt.failure {
            Some(AttemptFailure::Connect(e)) | Some(AttemptFailure::Lost(e)) => e,
            _ => io::Error::other("ping received no response"),
        }),
    }
}

/// Sends one `metrics` scrape and parses the server's snapshot out of
/// the response detail.
///
/// # Errors
///
/// Returns the connection error, a timeout after `timeout` of silence,
/// or an `InvalidData` error when the detail is not a snapshot.
pub fn fetch_metrics(endpoint: &Endpoint, timeout: Duration) -> io::Result<ServeSnapshot> {
    let frames = [(0usize, Request::metrics("metrics"))];
    let mut attempt = run_attempt(endpoint, &frames, Some(timeout), false);
    match attempt.answered.pop() {
        Some((_, response)) => ServeSnapshot::parse(&response.detail).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed metrics snapshot: {}", response.detail),
            )
        }),
        None => Err(match attempt.failure {
            Some(AttemptFailure::Connect(e)) | Some(AttemptFailure::Lost(e)) => e,
            _ => io::Error::other("metrics scrape received no response"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server, ServeStats};
    use kiss_obs::sinks::ChannelSink;
    use kiss_seq::{Budget, CancelToken};
    use std::io::BufRead;
    use std::net::TcpListener;

    fn boot() -> (Endpoint, CancelToken, std::thread::JoinHandle<ServeStats>) {
        let cfg = ServeConfig {
            port: Some(0),
            jobs: 2,
            budget: Budget::small(),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).unwrap();
        let port = server.local_port().unwrap();
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&token).unwrap());
        (Endpoint::Tcp(format!("127.0.0.1:{port}")), shutdown, handle)
    }

    /// A scripted stand-in server: connection `i` reads
    /// `reads_per_conn[i]` request lines, answers with the scripted
    /// responses (`{}` placeholders get the request's wire id), then
    /// closes.
    fn scripted_server(
        scripts: Vec<Vec<Option<Response>>>,
    ) -> (Endpoint, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for script in scripts {
                let (stream, _) = listener.accept().unwrap();
                let mut lines = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for slot in script {
                    let mut line = String::new();
                    if lines.read_line(&mut line).unwrap() == 0 {
                        break;
                    }
                    let wire_id = line
                        .split("\"id\":\"")
                        .nth(1)
                        .and_then(|rest| rest.split('"').next())
                        .unwrap_or("")
                        .to_string();
                    if let Some(mut response) = slot {
                        response.id = wire_id;
                        writeln!(writer, "{}", response.to_json()).unwrap();
                    }
                    // None: swallow the request and close (torn server).
                }
            }
        });
        (Endpoint::Tcp(addr.to_string()), handle)
    }

    fn pass(detail: &str) -> Response {
        Response {
            id: String::new(),
            verdict: "pass".to_string(),
            detail: detail.to_string(),
            steps: 1,
            states: 1,
            cache: CacheStatus::Miss,
        }
    }

    #[test]
    fn batch_dedups_and_fans_shared_verdicts_back_out() {
        let (endpoint, shutdown, handle) = boot();
        let src = "int x;\nvoid main() { x = 1; assert x == 1; }";
        let batch = vec![
            Request::check("first", src),
            Request::check("second", src), // same content address as `first`
            Request::check("third", "int y;\nvoid main() { y = 2; assert y == 2; }"),
        ];
        let outcome = submit_batch(&endpoint, &batch).unwrap();
        assert_eq!(outcome.unique, 2, "identical sources collapse to one wire request");
        assert_eq!(outcome.responses.len(), 3);
        assert_eq!(outcome.entry_cache[0], EntryCache::Miss);
        assert_eq!(outcome.entry_cache[1], EntryCache::Deduped);
        assert_eq!(outcome.entry_cache[2], EntryCache::Miss);
        assert_eq!(outcome.hits, 0);
        assert_eq!(outcome.misses, 2);
        assert_eq!(outcome.retries, 0);
        // Ids come back as the caller named them; dedup shares verdicts.
        assert_eq!(outcome.responses[0].id, "first");
        assert_eq!(outcome.responses[1].id, "second");
        assert_eq!(outcome.responses[0].verdict, "pass");
        assert_eq!(outcome.responses[0].verdict, outcome.responses[1].verdict);
        assert_eq!(outcome.responses[0].detail, outcome.responses[1].detail);

        // A second submission of the same batch is all cache hits.
        let outcome = submit_batch(&endpoint, &batch).unwrap();
        assert_eq!(outcome.hits, 2);
        assert_eq!(outcome.misses, 0);
        assert_eq!(outcome.entry_cache[0], EntryCache::Hit);

        shutdown.cancel();
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn ping_reports_queue_depth_and_uptime() {
        let (endpoint, shutdown, handle) = boot();
        let response = ping(&endpoint, Duration::from_secs(5)).unwrap();
        assert_eq!(response.verdict, "ok");
        assert!(response.detail.contains("queue_depth=0"), "{}", response.detail);
        assert!(response.detail.contains("cache_entries=0"), "{}", response.detail);
        assert!(response.detail.contains("uptime_ms="), "{}", response.detail);
        shutdown.cancel();
        // Status pings are control-plane: not in the request tally.
        assert_eq!(handle.join().unwrap().requests, 0);
    }

    #[test]
    fn metrics_scrape_agrees_with_the_request_tally() {
        let (endpoint, shutdown, handle) = boot();
        let batch = vec![Request::check("a", "int q;\nvoid main() { q = 5; assert q == 5; }")];
        submit_batch(&endpoint, &batch).unwrap(); // miss
        submit_batch(&endpoint, &batch).unwrap(); // hit
        let snap = fetch_metrics(&endpoint, Duration::from_secs(5)).unwrap();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.requests, snap.hits + snap.misses + snap.shed);
        assert_eq!(snap.hit_rate(), Some(0.5));
        assert_eq!(snap.cache_entries, 1);
        assert_eq!(snap.in_flight, 0, "no check is running during the scrape");
        assert!(snap.queue_peak >= 1, "the miss passed through the queue");
        let count = |name: &str| {
            snap.latency.iter().find(|(n, _)| n == name).map(|(_, h)| h.count())
        };
        assert_eq!(count("check"), Some(1));
        assert_eq!(count("hit"), Some(1));
        assert_eq!(snap.batches, 2, "each submission travelled as one batch frame");
        assert_eq!(snap.accepted, 3, "two submissions plus the scrape connection");
        shutdown.cancel();
        // The scrape is control-plane: not in the request tally.
        assert_eq!(handle.join().unwrap().requests, 2);
    }

    #[test]
    fn a_traced_request_emits_a_complete_span_tree() {
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = ServeConfig {
            port: Some(0),
            jobs: 1,
            budget: Budget::small(),
            obs: Obs::new(ChannelSink(tx)),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).unwrap();
        let port = server.local_port().unwrap();
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&token).unwrap());
        let endpoint = Endpoint::Tcp(format!("127.0.0.1:{port}"));
        let mut traced = Request::check("traced", "void main() { skip; }");
        traced.trace = TraceId(0xabcd);
        submit_batch(&endpoint, std::slice::from_ref(&traced)).unwrap();
        shutdown.cancel();
        handle.join().unwrap();

        let hex = TraceId(0xabcd).to_hex();
        // (span id -> (name, parent)) for the client's trace only.
        let mut opened: HashMap<u64, (String, u64)> = HashMap::new();
        let mut closed: Vec<u64> = Vec::new();
        let mut root_request = None;
        for event in rx.try_iter() {
            match event {
                Event::SpanOpen { trace, span, parent, name, request } if trace == hex => {
                    if parent == 0 {
                        root_request = request;
                    }
                    opened.insert(span, (name, parent));
                }
                Event::SpanClose { trace, span, .. } if trace == hex => closed.push(span),
                _ => {}
            }
        }
        let by_name = |name: &str| {
            opened
                .iter()
                .find(|(_, (n, _))| n == name)
                .map(|(&span, &(_, parent))| (span, parent))
                .unwrap_or_else(|| panic!("no `{name}` span in {opened:?}"))
        };
        let (recv, recv_parent) = by_name("recv");
        let (queued, queued_parent) = by_name("queued");
        let (check, check_parent) = by_name("check");
        let (_reply, reply_parent) = by_name("reply");
        assert_eq!(recv_parent, 0, "recv is the root");
        assert_eq!(root_request.as_deref(), Some("q0"), "the root names its request");
        assert_eq!(queued_parent, recv);
        assert_eq!(check_parent, queued);
        assert_eq!(reply_parent, check);
        // The engine's phase spans hang off the check span.
        for phase in ["transform", "lower", "explore"] {
            let (_, parent) = by_name(phase);
            assert_eq!(parent, check, "`{phase}` must parent under `check`");
        }
        // Balance: every open closed exactly once.
        closed.sort_unstable();
        let mut all: Vec<u64> = opened.keys().copied().collect();
        all.sort_unstable();
        assert_eq!(closed, all, "span opens and closes must pair up");
    }

    #[test]
    fn a_dropped_connection_is_retried_and_recovers() {
        // Connection 1 swallows the request and closes; connection 2
        // answers. One client_retry event, final verdict intact.
        let (endpoint, server) =
            scripted_server(vec![vec![None], vec![Some(pass("recovered"))]]);
        let (tx, rx) = std::sync::mpsc::channel();
        let opts = SubmitOptions {
            retries: 2,
            backoff: Duration::from_millis(2),
            obs: Obs::new(ChannelSink(tx)),
            // The scripted server answers with whatever id it read
            // first, which for a batch frame would be the frame id.
            batch: false,
            ..SubmitOptions::default()
        };
        let batch = [Request::check("job", "void main() { skip; }")];
        let outcome = submit_batch_with(&endpoint, &batch, &opts).unwrap();
        server.join().unwrap();
        assert_eq!(outcome.retries, 1);
        assert_eq!(outcome.responses[0].verdict, "pass");
        assert_eq!(outcome.responses[0].detail, "recovered");
        assert_eq!(outcome.responses[0].id, "job");
        let events: Vec<Event> = rx.try_iter().collect();
        assert_eq!(events.len(), 1);
        let Event::ClientRetry { attempt, reason, .. } = &events[0] else {
            panic!("expected a client_retry event, got {events:?}")
        };
        assert_eq!(*attempt, 2, "the first retry is the second attempt");
        assert!(reason.contains("outstanding") || reason.contains("closed"), "{reason}");
    }

    #[test]
    fn overloaded_responses_are_retried_until_the_budget_runs_out() {
        // Both connections shed: with retries=1 the second overloaded
        // answer is final and surfaces to the caller as a verdict.
        let (endpoint, server) = scripted_server(vec![
            vec![Some(Response::overloaded(String::new(), 7))],
            vec![Some(Response::overloaded(String::new(), 7))],
        ]);
        let opts = SubmitOptions {
            retries: 1,
            backoff: Duration::from_millis(2),
            batch: false,
            ..SubmitOptions::default()
        };
        let batch = [Request::check("job", "void main() { skip; }")];
        let outcome = submit_batch_with(&endpoint, &batch, &opts).unwrap();
        server.join().unwrap();
        assert_eq!(outcome.retries, 1);
        assert_eq!(outcome.responses[0].verdict, "overloaded");
        assert!(outcome.responses[0].detail.contains("queue full"));
    }

    #[test]
    fn no_cache_requests_are_not_resent_after_a_mid_flight_loss() {
        // The connection dies after the frames were sent; the answered
        // cacheable entry stays answered and the swallowed no_cache
        // entry must NOT be re-executed — so no reconnect happens at
        // all, and the loss surfaces as that entry's error verdict.
        let (endpoint, server) =
            scripted_server(vec![vec![Some(pass("first-run")), None]]);
        let opts = SubmitOptions {
            retries: 2,
            backoff: Duration::from_millis(2),
            batch: false,
            ..SubmitOptions::default()
        };
        let mut fresh = Request::check("fresh", "void main() { skip; }");
        fresh.no_cache = true;
        let batch = [
            Request::check("cacheable", "int z;\nvoid main() { z = 3; }"),
            fresh,
        ];
        let outcome = submit_batch_with(&endpoint, &batch, &opts).unwrap();
        server.join().unwrap();
        // Wire order matches batch order: the cacheable entry was
        // answered before the drop, the no_cache entry was swallowed.
        assert_eq!(outcome.responses[0].verdict, "pass");
        assert_eq!(outcome.responses[0].detail, "first-run");
        assert_eq!(outcome.responses[1].verdict, "error");
        assert!(
            outcome.responses[1].detail.contains("no_cache request not retried"),
            "{}",
            outcome.responses[1].detail
        );
        assert_eq!(outcome.retries, 0, "nothing retryable was left pending");
    }

    #[test]
    fn old_servers_reject_ltl_requests_with_a_named_error_the_client_reports() {
        // An old server predating liveness decodes `op:"ltl"` as an
        // unknown op and answers a typed error naming it. The client
        // must surface that response verbatim — no retry (the server
        // answered), no crash, no conflation with a transport failure.
        let old_server_rejection = Response {
            id: String::new(),
            verdict: "error".to_string(),
            detail: "malformed frame: unknown op `ltl`".to_string(),
            steps: 0,
            states: 0,
            cache: CacheStatus::None,
        };
        let (endpoint, server) = scripted_server(vec![vec![Some(old_server_rejection)]]);
        let opts = SubmitOptions { batch: false, ..SubmitOptions::default() };
        let batch =
            [Request::ltl("live", "int g; void main() { g = 1; }", "F (g == 1)")];
        let outcome = submit_batch_with(&endpoint, &batch, &opts).unwrap();
        server.join().unwrap();
        assert_eq!(outcome.responses[0].verdict, "error");
        assert!(
            outcome.responses[0].detail.contains("unknown op `ltl`"),
            "{}",
            outcome.responses[0].detail
        );
        assert_eq!(outcome.retries, 0, "an answered error is final, not retryable");
    }

    #[test]
    fn ltl_submissions_cache_separately_from_plain_checks() {
        // One source, two ops, against a live server: the plain check
        // must not warm the liveness request (distinct cache keys), and
        // a repeated liveness request must hit.
        let (endpoint, shutdown, handle) = boot();
        let src = "int locked;\nvoid worker() { locked = 0; }\n\
                   void main() { locked = 1; async worker(); while (locked == 1) { skip; } }";
        let check = Request::check("plain", src);
        let ltl = Request::ltl("live", src, "G (locked -> F !locked)");
        let cold = submit_batch(&endpoint, &[check, ltl.clone()]).unwrap();
        assert_eq!(cold.responses[0].verdict, "pass");
        assert_eq!(cold.responses[1].verdict, "pass");
        assert_eq!(cold.misses, 2, "check and ltl are distinct cache entries");
        assert_eq!(cold.hits, 0);
        let warm = submit_batch(&endpoint, &[ltl]).unwrap();
        assert_eq!(warm.hits, 1, "the repeated liveness request must hit");
        assert_eq!(warm.responses[0].cache, CacheStatus::Hit);
        // Warm answers are byte-identical to cold ones.
        assert_eq!(warm.responses[0].verdict, cold.responses[1].verdict);
        assert_eq!(warm.responses[0].detail, cold.responses[1].detail);
        shutdown.cancel();
        handle.join().unwrap();
    }

    #[test]
    fn single_frame_mode_still_works_against_a_live_server() {
        let (endpoint, shutdown, handle) = boot();
        let opts = SubmitOptions { batch: false, ..SubmitOptions::default() };
        let batch = [Request::check("plain", "int w;\nvoid main() { w = 9; assert w == 9; }")];
        let outcome = submit_batch_with(&endpoint, &batch, &opts).unwrap();
        assert_eq!(outcome.responses[0].verdict, "pass");
        let snap = fetch_metrics(&endpoint, Duration::from_secs(5)).unwrap();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.batches, 0, "no batch frame was sent");
        shutdown.cancel();
        handle.join().unwrap();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let opts = SubmitOptions {
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
            jitter_seed: 42,
            ..SubmitOptions::default()
        };
        let same = SubmitOptions { ..opts.clone() };
        for attempt in 1..=6 {
            let a = opts.backoff_before(attempt);
            assert_eq!(a, same.backoff_before(attempt), "same seed, same schedule");
            // Equal jitter: between base/2 and base, capped.
            let base = Duration::from_millis(100 * (1 << (attempt - 1)).min(4));
            assert!(a >= base / 2, "attempt {attempt}: {a:?} < {:?}", base / 2);
            assert!(a <= base, "attempt {attempt}: {a:?} > {base:?}");
        }
        let other = SubmitOptions { jitter_seed: 43, ..opts.clone() };
        let schedules_differ =
            (1..=6).any(|n| opts.backoff_before(n) != other.backoff_before(n));
        assert!(schedules_differ, "different seeds should jitter differently");
    }
}
