//! The check server: listeners, a bounded job queue, and a worker pool
//! executing checks under the `kiss-core` supervisor.
//!
//! Connections are line-oriented ([`crate::protocol`]). The front end
//! is event-driven: a small pool of driver threads
//! ([`ServeConfig::io_threads`]) multiplexes every accepted connection
//! over nonblocking sockets, so hundreds of idle clients cost file
//! descriptors, not threads. Each driver iteration adopts newly
//! accepted streams, pumps readable bytes into frames, retries
//! deferred admissions, and flushes queued responses. Any progress —
//! a connection adopted, an admission resolved, bytes read, an answer
//! flushed — keeps the driver polling; an iteration with none backs
//! off with an adaptive sleep (50µs doubling to 5ms). A client's next
//! frame usually follows its last answer within microseconds, so a
//! connection is served at poll speed while an idle server costs
//! almost nothing.
//!
//! Parsed requests either answer immediately from the result cache or
//! enqueue a job for the worker pool, so responses can arrive out of
//! request order (clients correlate by `id`). A `batch` frame fans
//! into its entries at this point — batching is framing only, the
//! per-request path is identical. Shutdown is a [`CancelToken`]:
//! accept loops and reads stop, deferred admissions resolve, queued
//! jobs drain, and `run` returns the tally.
//!
//! Robustness: queue admission is asynchronous — a request that finds
//! the queue full parks on the driver's waiting list for up to
//! [`ServeConfig::admission_wait`] (never blocking the driver) and is
//! then shed with a typed `overloaded` response; connections with no
//! traffic and no in-flight work for [`ServeConfig::idle_timeout`]
//! are closed so dead clients cannot pin resources; `status` pings
//! answer immediately with queue depth, cache size, and uptime; and
//! the journal is compacted at drain. Failpoints (`serve.accept`,
//! `serve.conn.read`, `serve.conn.write`, `serve.enqueue`,
//! `serve.worker`) let the chaos suite inject connection drops, torn
//! writes, admission failures, and worker panics — a worker panic
//! lands in the supervisor's `catch_unwind` and comes back as a
//! `crashed` verdict, which is never cached.
//!
//! A miss's front end runs through one [`ValidBodies`] memo shared by
//! the workers: a race sweep sends each driver once per field with only
//! the harness `main` changed, so after the first field the lowered
//! declarations are reused and the bodies `main` does not reach are
//! stubbed instead of lexed, parsed and lowered again. Verdicts are the
//! same either way: the transform stubs every unreachable function too.
//! The memo is bounded by a constant (about 1.1 MB of body keys and
//! 512 KiB of declaration text lowered, see [`ValidBodies`]).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use kiss_core::{Kiss, KissOutcome, RaceTarget, Supervised, Supervisor};
use kiss_fault::Action;
use kiss_lang::ValidBodies;
use kiss_obs::span::next_span_id;
use kiss_obs::{AtomicHistogram, Event, Gauge, Obs, Span, TraceId};
use kiss_seq::{BoundReason, Budget, CancelToken};

use crate::cache::{CachedVerdict, ResultCache};
use crate::protocol::{
    decode_frame, CacheStatus, Frame, FrameError, Op, Request, Response, ServeSnapshot,
    MAX_FRAME_BYTES,
};

/// How long an accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// A driver's backoff floor after an iteration with no progress.
const DRIVE_MIN_SLEEP: Duration = Duration::from_micros(50);
/// A driver's backoff ceiling while every connection stays quiet.
const DRIVE_MAX_SLEEP: Duration = Duration::from_millis(5);
/// Read chunks one connection may consume per driver iteration, so a
/// firehose client cannot starve its driver's other connections.
const READS_PER_PUMP: usize = 16;

/// Failpoint: one accepted connection (error = drop it on the floor).
const ACCEPT_POINT: &str = "serve.accept";
/// Failpoint: one connection read (error = treat the peer as gone,
/// truncate = deliver only the first K bytes of the chunk).
const READ_POINT: &str = "serve.conn.read";
/// Failpoint: one response write (error = broken pipe, truncate = torn
/// response then close).
const WRITE_POINT: &str = "serve.conn.write";
/// Failpoint: one queue admission (error = immediate shed).
const ENQUEUE_POINT: &str = "serve.enqueue";
/// Failpoint: one check execution, inside the supervisor's
/// `catch_unwind` (panic/error = crashed verdict, not cached).
const WORKER_POINT: &str = "serve.worker";

/// Server configuration.
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: Option<PathBuf>,
    /// Loopback TCP port to listen on (0 picks a free one; see
    /// [`Server::local_port`]).
    pub port: Option<u16>,
    /// Worker threads executing checks.
    pub jobs: usize,
    /// Driver threads multiplexing connections.
    pub io_threads: usize,
    /// Bounded queue depth (backpressure).
    pub max_queue: usize,
    /// How long one request may wait for a queue slot before it is
    /// shed with a typed `overloaded` response.
    pub admission_wait: Duration,
    /// Close a connection after this long with no bytes, no responses,
    /// and no in-flight jobs (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Journal directory for the result cache (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Default check budget (requests may override axes).
    pub budget: Budget,
    /// Supervisor retry ladder depth.
    pub retries: u32,
    /// Observer receiving server and check events.
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: None,
            port: None,
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            io_threads: 2,
            max_queue: 64,
            admission_wait: Duration::from_secs(10),
            idle_timeout: None,
            cache_dir: None,
            budget: Budget::generous(),
            retries: 0,
            obs: Obs::off(),
        }
    }
}

/// The request tally a finished server run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Well-formed requests received (hits + misses + shed).
    pub requests: u64,
    /// Requests answered from the cache.
    pub cache_hits: u64,
    /// Requests executed (includes `no_cache` bypasses).
    pub cache_misses: u64,
    /// Requests shed with a typed `overloaded` response.
    pub shed: u64,
}

/// A response waiting in a connection's outbox.
struct Outgoing {
    response: Response,
    /// Span context (`trace`, parent span id) the driver opens its
    /// `reply` span under; `None` for control-plane and protocol-error
    /// responses, which are not traced.
    span: Option<(TraceId, u64)>,
    /// Whether writing this response retires one pending job slot in
    /// the connection's idle accounting (executed and shed answers do;
    /// hits and control-plane answers were never pending).
    retires: bool,
}

/// A parked driver's wake-up call. Socket readability is the one event
/// a driver must poll for; everything else that can create work for it
/// — a worker finishing a check, the acceptor handing it a connection —
/// rings the bell so the driver answers immediately instead of on its
/// next backoff tick. This matters most when checks are the only
/// activity: without it a driver burns a wake-up ramp per completion
/// (stealing cycles from the very worker producing them) yet still
/// adds up to [`DRIVE_MAX_SLEEP`] of latency per response. Nothing
/// rings for a frame the client sends after an answer, so flushing
/// that answer resets the backoff and the driver polls for the frame.
///
/// Aligned to its own pair of cache lines: the driver locks its bell on
/// every answer and every idle pass, and whether the small allocation
/// shared a line with other hot data otherwise depended on what the
/// server allocated before it, moving the warm hit path's throughput by
/// up to a fifth.
#[repr(align(128))]
struct Doorbell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    fn new() -> Doorbell {
        Doorbell { rung: Mutex::new(false), cv: Condvar::new() }
    }

    /// Wakes the parked owner (or makes its next `wait` return at once).
    fn ring(&self) {
        *self.rung.lock().expect("doorbell lock") = true;
        self.cv.notify_one();
    }

    /// Parks for at most `timeout`, returning early if rung. Spurious
    /// wake-ups cost one extra poll iteration, nothing more.
    fn wait(&self, timeout: Duration) {
        let mut rung = self.rung.lock().expect("doorbell lock");
        if !*rung {
            rung = self.cv.wait_timeout(rung, timeout).expect("doorbell lock").0;
        }
        *rung = false;
    }
}

/// The driver-side state a connection shares with workers: the outbox
/// responses flow through, and the liveness accounting the idle
/// deadline reads. Workers only ever touch this handle — the socket
/// itself stays owned by one driver thread.
struct ConnShared {
    outbox: Mutex<VecDeque<Outgoing>>,
    activity: ConnActivity,
    /// The owning driver's doorbell, rung on every queued response.
    bell: Arc<Doorbell>,
}

impl ConnShared {
    fn new(bell: Arc<Doorbell>) -> ConnShared {
        ConnShared { outbox: Mutex::new(VecDeque::new()), activity: ConnActivity::new(), bell }
    }

    /// Queues one response for the owning driver to flush.
    fn send(&self, out: Outgoing) {
        self.outbox.lock().expect("outbox lock").push_back(out);
        self.bell.ring();
    }
}

/// One queued execution.
struct Job {
    request: Request,
    key: u128,
    received: Instant,
    reply: Arc<ConnShared>,
    /// The request's trace.
    trace: TraceId,
    /// The `queued` span id, reserved at receipt (the driver emits the
    /// open once admission succeeds, parented under `recv`; the popping
    /// worker emits the close and parents its `check` span here).
    queued_span: u64,
}

/// A job that found the queue full and is parked on its driver's
/// waiting list until a slot frees or the admission deadline passes.
struct Waiting {
    job: Box<Job>,
    deadline: Instant,
    /// The `recv` span id sheds parent their `reply` span under.
    recv_span: u64,
}

/// Why a push did not enqueue.
enum PushError {
    /// The queue is full right now.
    Full(Box<Job>),
    /// The queue is closed (server draining).
    Closed(Box<Job>),
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded job queue: nonblocking push (drivers park rejected jobs
/// on their waiting lists), blocking pop (workers park when idle).
struct Queue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    cap: usize,
    /// High-water mark of the depth since start (reported by `metrics`).
    peak: AtomicU64,
}

impl Queue {
    fn new(cap: usize) -> Queue {
        Queue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            peak: AtomicU64::new(0),
        }
    }

    /// Admits the job if a slot is free right now; gives it back when
    /// the queue is full ([`PushError::Full`]) or has been closed
    /// ([`PushError::Closed`]). Never blocks — a driver thread must
    /// stay responsive to its other connections.
    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(Box::new(job)));
        }
        if state.jobs.len() >= self.cap {
            return Err(PushError::Full(Box::new(job)));
        }
        state.jobs.push_back(job);
        self.peak.fetch_max(state.jobs.len() as u64, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks while the queue is empty; `None` once it is closed *and*
    /// drained, so pending jobs still complete during shutdown.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    fn depth(&self) -> u64 {
        self.state.lock().expect("queue lock").jobs.len() as u64
    }

    fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One accepted connection, unix or TCP.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Drivers multiplex many connections, so every socket is
    /// nonblocking: reads and writes return `WouldBlock` instead of
    /// parking the thread. TCP also disables Nagle — responses are
    /// small frames on a request/response protocol, and batching them
    /// behind delayed ACKs would cost tens of milliseconds per round
    /// trip.
    fn prepare(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Live tallies shared by drivers and workers: atomic mirrors of
/// [`ServeStats`], the connection-level counts, and the gauges and
/// latency histograms the `metrics` op snapshots. Every field is a
/// plain atomic, so recording never takes a lock.
#[derive(Default)]
struct LiveMetrics {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    shed: AtomicU64,
    /// Connections accepted since start.
    accepted: AtomicU64,
    /// Admissions that found the queue full and parked on a waiting
    /// list (the accept-backlog pressure signal).
    admission_waits: AtomicU64,
    /// Pipelined batch frames received.
    batches: AtomicU64,
    /// Workers executing a check right now.
    in_flight: Gauge,
    /// Client connections open right now (its peak is the
    /// `conns_peak` snapshot field).
    conns: Gauge,
    /// Wall milliseconds from receipt to executed answer (latency
    /// `check`: queue wait + execution).
    check_ms: AtomicHistogram,
    /// Wall milliseconds from receipt to cache-hit answer (latency
    /// `hit`).
    hit_ms: AtomicHistogram,
}

/// Everything a driver or worker needs, bundled so signatures stay
/// readable.
struct Shared<'a> {
    queue: &'a Queue,
    cache: &'a ResultCache,
    metrics: &'a LiveMetrics,
    /// Function bodies validated so far, for every worker's front end.
    bodies: &'a ValidBodies,
    cfg: &'a ServeConfig,
    started: Instant,
}

/// Per-connection liveness: when the last byte or response moved, and
/// how many enqueued jobs are still unanswered. The idle deadline only
/// fires when both are quiet — a silent client waiting on a slow check
/// is *waiting*, not dead.
struct ConnActivity {
    opened: Instant,
    last_ms: AtomicU64,
    pending: AtomicU64,
}

impl ConnActivity {
    fn new() -> ConnActivity {
        ConnActivity { opened: Instant::now(), last_ms: AtomicU64::new(0), pending: AtomicU64::new(0) }
    }

    fn touch(&self) {
        self.last_ms.store(self.opened.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn idle_for(&self) -> Duration {
        let now = self.opened.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.last_ms.load(Ordering::Relaxed)))
    }

    fn is_quiet(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    cfg: ServeConfig,
    listeners: Vec<Listener>,
    local_port: Option<u16>,
}

impl Server {
    /// Binds the configured endpoints. A stale unix socket file is
    /// removed first; at least one of `socket`/`port` must be set.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let mut listeners = Vec::new();
        let mut local_port = None;
        if let Some(path) = &cfg.socket {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                listeners.push(Listener::Unix(listener));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform; use --port",
                ));
            }
        }
        if let Some(port) = cfg.port {
            let listener = TcpListener::bind(("127.0.0.1", port))?;
            local_port = Some(listener.local_addr()?.port());
            listener.set_nonblocking(true)?;
            listeners.push(Listener::Tcp(listener));
        }
        if listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs a --socket path or a --port",
            ));
        }
        Ok(Server { cfg, listeners, local_port })
    }

    /// The bound TCP port, when a TCP listener was requested (resolves
    /// `--port 0`).
    pub fn local_port(&self) -> Option<u16> {
        self.local_port
    }

    /// Serves until `shutdown` is cancelled: accept loops stop, drivers
    /// resolve their deferred admissions, queued jobs drain onto still-
    /// open connections, the journal is compacted, and the tally is
    /// returned.
    pub fn run(self, shutdown: &CancelToken) -> io::Result<ServeStats> {
        let cache = match &self.cfg.cache_dir {
            Some(dir) => ResultCache::open(dir)?.with_observer(self.cfg.obs.clone()),
            None => ResultCache::in_memory(),
        };
        let queue = Queue::new(self.cfg.max_queue);
        let metrics = LiveMetrics::default();
        let bodies = ValidBodies::new();
        let label_seq = AtomicU64::new(0);
        let cfg = &self.cfg;
        let io_threads = cfg.io_threads.max(1);
        // Accepted streams round-robin into per-driver inboxes; each
        // driver owns its connections outright from adoption to cull.
        let injectors: Vec<Mutex<Vec<Stream>>> =
            (0..io_threads).map(|_| Mutex::new(Vec::new())).collect();
        let bells: Vec<Arc<Doorbell>> = (0..io_threads).map(|_| Arc::new(Doorbell::new())).collect();
        let next_driver = AtomicUsize::new(0);
        // Drivers that have stopped producing admissions (shutdown seen,
        // waiting list empty): once all have, the queue can close.
        let quiesced = AtomicUsize::new(0);
        let shared = Shared {
            queue: &queue,
            cache: &cache,
            metrics: &metrics,
            bodies: &bodies,
            cfg,
            started: Instant::now(),
        };
        let shared = &shared;

        std::thread::scope(|s| {
            for _ in 0..cfg.jobs.max(1) {
                s.spawn(|| worker_loop(shared, &label_seq));
            }
            for (injector, bell) in injectors.iter().zip(&bells) {
                let quiesced = &quiesced;
                s.spawn(move || driver_loop(injector, bell, shared, shutdown, quiesced));
            }
            for listener in &self.listeners {
                let injectors = &injectors;
                let bells = &bells;
                let next_driver = &next_driver;
                s.spawn(move || {
                    while !shutdown.is_cancelled() {
                        match listener.accept() {
                            Ok(stream) => {
                                if let Some(action) = kiss_fault::hit(ACCEPT_POINT) {
                                    note_fault(&cfg.obs, ACCEPT_POINT, action);
                                    match action {
                                        // The connection vanishes as if the
                                        // peer dropped mid-handshake.
                                        Action::Error | Action::Truncate(_) => continue,
                                        Action::Panic => {
                                            panic!("kiss-fault: injected panic at {ACCEPT_POINT}")
                                        }
                                        Action::Delay(d) => std::thread::sleep(d),
                                    }
                                }
                                if stream.prepare().is_err() {
                                    continue;
                                }
                                shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                                let ix = next_driver.fetch_add(1, Ordering::Relaxed)
                                    % injectors.len();
                                injectors[ix].lock().expect("injector lock").push(stream);
                                bells[ix].ring();
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(ACCEPT_POLL);
                            }
                            // Transient accept failures (e.g. the peer
                            // vanished mid-handshake) are not fatal.
                            Err(_) => std::thread::sleep(ACCEPT_POLL),
                        }
                    }
                });
            }
            // The scope body itself coordinates the drain: once shutdown
            // is requested and every driver has resolved its deferred
            // admissions, close the queue so workers exit after the
            // backlog empties (drivers keep flushing those answers).
            while !shutdown.is_cancelled() {
                std::thread::sleep(ACCEPT_POLL);
            }
            while quiesced.load(Ordering::SeqCst) < io_threads {
                std::thread::sleep(Duration::from_millis(5));
            }
            queue.close();
        });

        // Drain-time housekeeping: fold the append-heavy journal down to
        // one record per entry so restarts replay a minimal file. Best
        // effort — a compaction failure leaves the journal valid.
        let _ = cache.compact();

        #[cfg(unix)]
        if let Some(path) = &self.cfg.socket {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServeStats {
            requests: metrics.requests.load(Ordering::SeqCst),
            cache_hits: metrics.hits.load(Ordering::SeqCst),
            cache_misses: metrics.misses.load(Ordering::SeqCst),
            shed: metrics.shed.load(Ordering::SeqCst),
        })
    }
}

fn note_fault(obs: &Obs, point: &str, action: Action) {
    obs.emit(|_| Event::FaultInjected {
        point: point.to_string(),
        action: action.name().to_string(),
    });
}

/// One connection owned by a driver: the nonblocking socket plus its
/// framing buffers. `shared` is the handle workers answer through.
struct Conn {
    stream: Stream,
    shared: Arc<ConnShared>,
    /// Unframed inbound bytes.
    rbuf: Vec<u8>,
    /// How far `rbuf` has been scanned for a newline without finding
    /// one, so a large frame arriving in many reads is scanned once,
    /// not once per read.
    scanned: usize,
    /// Serialized responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Bytes discarded from a frame that outgrew [`MAX_FRAME_BYTES`]
    /// before its newline arrived; the frame is answered with one
    /// error once the newline shows up.
    discarded: usize,
    /// EOF seen (or shutdown): no more reads, but queued answers still
    /// flush.
    read_closed: bool,
    /// The socket is gone (write error, injected fault): cull now.
    dead: bool,
    /// Stop serializing new responses, die once `wbuf` flushes (the
    /// torn-write fault path).
    poisoned: bool,
}

impl Conn {
    fn adopt(stream: Stream, metrics: &LiveMetrics, bell: &Arc<Doorbell>) -> Conn {
        metrics.conns.inc();
        Conn {
            stream,
            shared: Arc::new(ConnShared::new(bell.clone())),
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            discarded: 0,
            read_closed: false,
            dead: false,
            poisoned: false,
        }
    }

    /// One driver visit: read what the socket has, frame and dispatch
    /// it, then flush whatever the outbox and `wbuf` hold. Returns
    /// whether it read or wrote anything.
    fn pump(
        &mut self,
        shared: &Shared<'_>,
        waiting: &mut VecDeque<Waiting>,
        shutdown: &CancelToken,
    ) -> bool {
        let mut progress = false;
        if shutdown.is_cancelled() {
            self.read_closed = true;
        }
        if !self.read_closed && !self.dead {
            let mut chunk = [0u8; 32 * 1024];
            for _ in 0..READS_PER_PUMP {
                let mut n = match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                };
                if let Some(action) = kiss_fault::hit(READ_POINT) {
                    note_fault(&shared.cfg.obs, READ_POINT, action);
                    match action {
                        // The peer is treated as gone mid-read; answers
                        // already in flight still flush.
                        Action::Error => {
                            self.read_closed = true;
                            break;
                        }
                        Action::Panic => panic!("kiss-fault: injected panic at {READ_POINT}"),
                        Action::Delay(d) => std::thread::sleep(d),
                        // A short read: only the chunk's head arrived.
                        Action::Truncate(cut) => n = n.min(cut.max(1)),
                    }
                }
                progress = true;
                self.shared.activity.touch();
                self.rbuf.extend_from_slice(&chunk[..n]);
                self.dispatch_lines(shared, waiting);
            }
        }
        let flushed = self.flush(shared);
        progress | flushed
    }

    /// Splits complete lines out of `rbuf` and handles each frame.
    fn dispatch_lines(&mut self, shared: &Shared<'_>, waiting: &mut VecDeque<Waiting>) {
        while let Some(off) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let pos = self.scanned + off;
            let rest = self.rbuf.split_off(pos + 1);
            let mut line = std::mem::replace(&mut self.rbuf, rest);
            self.scanned = 0;
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if self.discarded > 0 {
                let err = FrameError::Oversized { bytes: self.discarded + line.len() };
                self.shared.send(Outgoing {
                    response: Response::error("", err.message()),
                    span: None,
                    retires: false,
                });
                self.discarded = 0;
                continue;
            }
            if line.is_empty() {
                continue;
            }
            let text = String::from_utf8_lossy(&line);
            handle_frame(&text, &self.shared, shared, waiting);
        }
        self.scanned = self.rbuf.len();
        // No newline yet: a frame past the cap can never become valid,
        // so stop buffering it.
        if self.rbuf.len() > MAX_FRAME_BYTES {
            self.discarded += self.rbuf.len();
            self.rbuf.clear();
            self.scanned = 0;
        }
    }

    /// Serializes queued outbox responses into `wbuf` (opening their
    /// `reply` spans) and pushes `wbuf` into the socket.
    fn flush(&mut self, shared: &Shared<'_>) -> bool {
        let mut progress = false;
        let obs = &shared.cfg.obs;
        while !self.dead && !self.poisoned {
            let next = self.shared.outbox.lock().expect("outbox lock").pop_front();
            let Some(out) = next else { break };
            if let Some(action) = kiss_fault::hit(WRITE_POINT) {
                note_fault(obs, WRITE_POINT, action);
                match action {
                    // A broken pipe: this response (and the rest of the
                    // stream) never reaches the peer.
                    Action::Error => {
                        self.retire(&out);
                        self.dead = true;
                        break;
                    }
                    Action::Panic => panic!("kiss-fault: injected panic at {WRITE_POINT}"),
                    Action::Delay(d) => std::thread::sleep(d),
                    Action::Truncate(cut) => {
                        // A torn response: its head flushes, then the
                        // connection dies.
                        let line = out.response.to_json();
                        let cut = cut.min(line.len());
                        self.wbuf.extend_from_slice(&line.as_bytes()[..cut]);
                        self.retire(&out);
                        self.poisoned = true;
                        break;
                    }
                }
            }
            // The reply span covers the serialize + socket hand-off of
            // this response.
            let reply_span = out.span.map(|(trace, parent)| Span::open(obs, trace, parent, "reply"));
            self.wbuf.extend_from_slice(out.response.to_json().as_bytes());
            self.wbuf.push(b'\n');
            drop(reply_span);
            self.retire(&out);
            progress = true;
        }
        while !self.wbuf.is_empty() && !self.dead {
            match self.stream.write(&self.wbuf) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.wbuf.drain(..n);
                    self.shared.activity.touch();
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if self.poisoned && self.wbuf.is_empty() {
            self.dead = true;
        }
        progress
    }

    /// Retires one pending job slot once its answer has been handed to
    /// the socket (or provably never will be), so the idle accounting
    /// never wedges a connection open.
    fn retire(&self, out: &Outgoing) {
        if out.retires {
            self.shared.activity.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Whether the driver should drop this connection.
    fn finished(&self, shared: &Shared<'_>) -> bool {
        if self.dead {
            return true;
        }
        let quiet = self.shared.activity.is_quiet();
        let flushed = self.wbuf.is_empty()
            && self.shared.outbox.lock().expect("outbox lock").is_empty();
        if self.read_closed && quiet && flushed {
            return true;
        }
        if let Some(idle) = shared.cfg.idle_timeout {
            if quiet && flushed && self.shared.activity.idle_for() >= idle {
                return true;
            }
        }
        false
    }
}

/// One driver thread: multiplexes its connections until shutdown has
/// been seen, deferred admissions have resolved, and every connection
/// has drained.
fn driver_loop(
    injector: &Mutex<Vec<Stream>>,
    bell: &Arc<Doorbell>,
    shared: &Shared<'_>,
    shutdown: &CancelToken,
    quiesced: &AtomicUsize,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut waiting: VecDeque<Waiting> = VecDeque::new();
    let mut announced = false;
    let mut idle_sleep = DRIVE_MIN_SLEEP;
    loop {
        // Any progress resets the backoff, an answer flushed included:
        // a client that waits on its answer sends its next frame right
        // after it, and socket readability rings no bell, so a driver
        // that slept on after a flush would leave that frame unread for
        // up to the backoff ceiling.
        let mut progress = false;
        for stream in injector.lock().expect("injector lock").drain(..) {
            conns.push(Conn::adopt(stream, shared.metrics, bell));
            progress = true;
        }
        progress |= pump_waiting(&mut waiting, shared);
        for conn in &mut conns {
            progress |= conn.pump(shared, &mut waiting, shutdown);
        }
        conns.retain(|conn| {
            let done = conn.finished(shared);
            if done {
                shared.metrics.conns.dec();
            }
            !done
        });
        if shutdown.is_cancelled() && waiting.is_empty() && !announced {
            // No reads happen after shutdown, so the waiting list cannot
            // refill: this driver will never admit another job.
            announced = true;
            quiesced.fetch_add(1, Ordering::SeqCst);
        }
        if announced && conns.is_empty() {
            return;
        }
        if progress {
            idle_sleep = DRIVE_MIN_SLEEP;
            // Stay hot but let peers run: on a machine with fewer
            // cores than threads, a driver that loops without yielding
            // starves the very clients (and workers) it is serving
            // until the scheduler preempts it.
            std::thread::yield_now();
        } else {
            bell.wait(idle_sleep);
            idle_sleep = (idle_sleep * 2).min(DRIVE_MAX_SLEEP);
        }
    }
}

/// Retries the driver's deferred admissions in arrival order and sheds
/// the ones whose deadline passed. Returns whether anything resolved.
fn pump_waiting(waiting: &mut VecDeque<Waiting>, shared: &Shared<'_>) -> bool {
    let mut progress = false;
    while let Some(entry) = waiting.pop_front() {
        let Waiting { job, deadline, recv_span } = entry;
        // The booking ids outlive the job's move into the queue.
        let request_id = job.request.id.clone();
        let (trace, queued_span) = (job.trace, job.queued_span);
        match shared.queue.try_push(*job) {
            Ok(()) => {
                book_admission(request_id, trace, queued_span, recv_span, shared);
                progress = true;
            }
            Err(PushError::Full(job)) => {
                // The deadline sheds even while the queue stays full.
                if Instant::now() >= deadline {
                    shed(job, recv_span, shared);
                    progress = true;
                    continue;
                }
                // Still full, still in time: later entries would only
                // see the same answer, so restore the head and stop.
                waiting.push_front(Waiting { job, deadline, recv_span });
                break;
            }
            Err(PushError::Closed(job)) => {
                shed(job, recv_span, shared);
                progress = true;
            }
        }
    }
    progress
}

/// Books an admitted job: the miss counter, the `cache_miss` event,
/// and the `queued` span open (the popping worker emits its close).
fn book_admission(request_id: String, trace: TraceId, queued_span: u64, recv_span: u64, shared: &Shared<'_>) {
    shared.metrics.misses.fetch_add(1, Ordering::SeqCst);
    shared.cfg.obs.emit(|_| Event::CacheMiss { request: request_id });
    shared.cfg.obs.emit(|_| Event::SpanOpen {
        trace: trace.to_hex(),
        span: queued_span,
        parent: recv_span,
        name: "queued".to_string(),
        request: None,
    });
}

/// Sheds a job with the typed `overloaded` response.
fn shed(job: Box<Job>, recv_span: u64, shared: &Shared<'_>) {
    shared.metrics.shed.fetch_add(1, Ordering::SeqCst);
    let depth = shared.queue.depth();
    shared.cfg.obs.emit(|_| Event::RequestShed {
        request: job.request.id.clone(),
        queue_depth: depth,
    });
    shared.cfg.obs.emit(|_| Event::RequestDone {
        request: job.request.id.clone(),
        verdict: "overloaded".to_string(),
        wall_ms: job.received.elapsed().as_millis() as u64,
        queue_depth: depth,
    });
    let trace = job.trace;
    job.reply.send(Outgoing {
        response: Response::overloaded(job.request.id, depth),
        span: Some((trace, recv_span)),
        retires: true,
    });
}

/// Decodes and dispatches one inbound frame: a protocol error, a
/// single request, or a batch fanning into its entries.
fn handle_frame(
    line: &str,
    conn: &Arc<ConnShared>,
    shared: &Shared<'_>,
    waiting: &mut VecDeque<Waiting>,
) {
    match decode_frame(line) {
        Err(e) => {
            conn.send(Outgoing {
                response: Response::error("", e.message()),
                span: None,
                retires: false,
            });
        }
        Ok(Frame::Single(request)) => handle_request(request, conn, shared, waiting),
        Ok(Frame::Batch(batch)) => {
            shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
            for entry in batch.entries {
                handle_request(entry, conn, shared, waiting);
            }
        }
    }
}

/// Answers one request: status, metrics, cache hit, admission, or a
/// parked deferred admission.
fn handle_request(
    request: Request,
    conn: &Arc<ConnShared>,
    shared: &Shared<'_>,
    waiting: &mut VecDeque<Waiting>,
) {
    let Shared { queue, cache, metrics, bodies, cfg, started } = *shared;
    // Status is control-plane: answered inline, never queued, and kept
    // out of the request/cache accounting so the balance equation
    // (requests = hits + misses + shed) only covers checking ops.
    if request.op == Op::Status {
        let detail = format!(
            "queue_depth={} cache_entries={} uptime_ms={} requests={} hits={} misses={} shed={}",
            queue.depth(),
            cache.len() as u64,
            started.elapsed().as_millis(),
            metrics.requests.load(Ordering::SeqCst),
            metrics.hits.load(Ordering::SeqCst),
            metrics.misses.load(Ordering::SeqCst),
            metrics.shed.load(Ordering::SeqCst),
        );
        conn.send(Outgoing {
            response: Response {
                id: request.id,
                verdict: "ok".to_string(),
                detail,
                steps: 0,
                states: 0,
                cache: CacheStatus::None,
            },
            span: None,
            retires: false,
        });
        return;
    }
    // Metrics is control-plane too: the full snapshot travels in the
    // response detail, and the scrape itself never shows up in the
    // numbers it reports.
    if request.op == Op::Metrics {
        let (shard_acquires, shard_contended) = cache.lock_stats();
        let counts = bodies.counts();
        let snap = ServeSnapshot {
            uptime_ms: started.elapsed().as_millis() as u64,
            queue_depth: queue.depth(),
            queue_peak: queue.peak(),
            in_flight: metrics.in_flight.get(),
            conns_open: metrics.conns.get(),
            conns_peak: metrics.conns.peak(),
            accepted: metrics.accepted.load(Ordering::Relaxed),
            admission_waits: metrics.admission_waits.load(Ordering::Relaxed),
            batches: metrics.batches.load(Ordering::Relaxed),
            cache_entries: cache.len() as u64,
            journal_records: cache.journal_records() as u64,
            journal_bytes: cache.journal_bytes(),
            compactions: cache.compactions(),
            cache_shards: cache.shard_count() as u64,
            shard_acquires,
            shard_contended,
            requests: metrics.requests.load(Ordering::SeqCst),
            hits: metrics.hits.load(Ordering::SeqCst),
            misses: metrics.misses.load(Ordering::SeqCst),
            shed: metrics.shed.load(Ordering::SeqCst),
            faults: kiss_fault::total_fired(),
            bodies_lowered: counts.lowered,
            bodies_stubbed: counts.stubbed,
            decl_sets_reused: counts.decl_sets_reused,
            body_set_clears: counts.clears,
            latency: vec![
                ("check".to_string(), metrics.check_ms.snapshot()),
                ("hit".to_string(), metrics.hit_ms.snapshot()),
            ],
        };
        conn.send(Outgoing {
            response: Response {
                id: request.id,
                verdict: "ok".to_string(),
                detail: snap.to_json(),
                steps: 0,
                states: 0,
                cache: CacheStatus::None,
            },
            span: None,
            retires: false,
        });
        return;
    }
    let received = Instant::now();
    metrics.requests.fetch_add(1, Ordering::SeqCst);
    // The request's trace: client-minted when present, otherwise fresh.
    // `recv` is the root span; it closes when this function returns
    // (the job, if any, carries the span ids it needs onward).
    let trace = if request.trace.is_none() { TraceId::fresh() } else { request.trace };
    let recv = Span::open_for_request(&cfg.obs, trace, "recv", &request.id);
    cfg.obs.emit(|_| Event::RequestReceived {
        request: request.id.clone(),
        queue_depth: queue.depth(),
    });
    let key = request.cache_key();
    if !request.no_cache {
        if let Some(v) = cache.lookup(key) {
            metrics.hits.fetch_add(1, Ordering::SeqCst);
            metrics.hit_ms.record(received.elapsed().as_millis() as u64);
            cfg.obs.emit(|_| Event::CacheHit { request: request.id.clone() });
            cfg.obs.emit(|_| Event::RequestDone {
                request: request.id.clone(),
                verdict: v.verdict.clone(),
                wall_ms: 0,
                queue_depth: queue.depth(),
            });
            conn.send(Outgoing {
                response: Response {
                    id: request.id,
                    verdict: v.verdict,
                    detail: v.detail,
                    steps: v.steps,
                    states: v.states,
                    cache: CacheStatus::Hit,
                },
                span: Some((trace, recv.id())),
                retires: false,
            });
            return;
        }
    }
    // The job moves into the queue (or the waiting list) on success;
    // keep the ids for the booking that happens after admission. The
    // `queued` span id is reserved now but only opened once admission
    // succeeds; the popping worker emits its close. The pending slot
    // is taken now — a job waiting for admission is in flight as far
    // as the idle deadline is concerned.
    let request_id = request.id.clone();
    let queued_span = next_span_id();
    let recv_span = recv.id();
    conn.activity.pending.fetch_add(1, Ordering::SeqCst);
    let job = Job { key, received, reply: conn.clone(), trace, queued_span, request };
    let admission = match kiss_fault::hit(ENQUEUE_POINT) {
        Some(action) => {
            note_fault(&cfg.obs, ENQUEUE_POINT, action);
            match action {
                // Admission refused outright: the request is shed even
                // though the queue may have room.
                Action::Error | Action::Truncate(_) => Err(PushError::Full(Box::new(job))),
                Action::Panic => panic!("kiss-fault: injected panic at {ENQUEUE_POINT}"),
                Action::Delay(d) => {
                    std::thread::sleep(d);
                    queue.try_push(job)
                }
            }
        }
        None => queue.try_push(job),
    };
    match admission {
        Ok(()) => book_admission(request_id, trace, queued_span, recv_span, shared),
        Err(PushError::Full(job)) => {
            if cfg.admission_wait.is_zero() {
                shed(job, recv_span, shared);
            } else {
                // Park it: the driver retries every iteration and sheds
                // at the deadline, without ever blocking its other
                // connections behind this one's backpressure.
                metrics.admission_waits.fetch_add(1, Ordering::Relaxed);
                waiting.push_back(Waiting {
                    job,
                    deadline: received + cfg.admission_wait,
                    recv_span,
                });
            }
        }
        Err(PushError::Closed(job)) => shed(job, recv_span, shared),
    }
}

/// Pops jobs until the queue closes: execute, cache, answer.
fn worker_loop(shared: &Shared<'_>, seq: &AtomicU64) {
    let Shared { queue, cache, metrics, bodies, cfg, .. } = *shared;
    while let Some(job) = queue.pop() {
        // The `queued` span (opened at admission) ends here: its wall
        // time is exactly the queue wait.
        cfg.obs.emit(|_| Event::SpanClose {
            trace: job.trace.to_hex(),
            span: job.queued_span,
            name: "queued".to_string(),
            wall_us: job.received.elapsed().as_micros() as u64,
        });
        metrics.in_flight.inc();
        let check_span = Span::open(&cfg.obs, job.trace, job.queued_span, "check");
        let check_id = check_span.id();
        let (verdict, cacheable) = execute(&job.request, cfg, bodies, seq, job.trace, check_id);
        check_span.close();
        metrics.in_flight.dec();
        if cacheable {
            cache.insert(job.key, verdict.clone());
        }
        let wall_ms = job.received.elapsed().as_millis() as u64;
        metrics.check_ms.record(wall_ms);
        cfg.obs.emit(|_| Event::RequestDone {
            request: job.request.id.clone(),
            verdict: verdict.verdict.clone(),
            wall_ms,
            queue_depth: queue.depth(),
        });
        job.reply.send(Outgoing {
            response: Response {
                id: job.request.id,
                verdict: verdict.verdict,
                detail: verdict.detail,
                steps: verdict.steps,
                states: verdict.states,
                cache: CacheStatus::Miss,
            },
            span: Some((job.trace, check_id)),
            retires: true,
        });
    }
}

/// Runs one request under supervision. The second return value says
/// whether the verdict may enter the cache: verdicts that depend on
/// wall-clock or server state (deadline/cancellation inconclusives,
/// crashes, setup failures) must not.
fn execute(
    request: &Request,
    cfg: &ServeConfig,
    bodies: &ValidBodies,
    seq: &AtomicU64,
    trace: TraceId,
    parent: u64,
) -> (CachedVerdict, bool) {
    let error = |detail: String| CachedVerdict {
        verdict: "error".to_string(),
        detail,
        steps: 0,
        states: 0,
    };
    let span = Span::open(&cfg.obs, trace, parent, "parse");
    let parsed = bodies.parse_and_lower(&request.source);
    span.close();
    let program = match parsed {
        Ok(program) => program,
        Err(e) => return (error(format!("parse: {e}")), false),
    };
    // Resolve the op's argument before supervising, so a bad target or
    // formula is a typed request error — never a crashed verdict.
    enum Work {
        Check,
        Race(RaceTarget),
        Ltl(kiss_ltl::Formula),
    }
    let work = match &request.op {
        Op::Check => Work::Check,
        Op::Race { target } => match RaceTarget::resolve(&program, target) {
            Some(resolved) => Work::Race(resolved),
            None => return (error(format!("unknown race target `{target}`")), false),
        },
        Op::Ltl { formula } => {
            let formula = match kiss_ltl::parse(formula) {
                Ok(f) => f,
                Err(e) => return (error(format!("ltl: {e}")), false),
            };
            if let Err(name) = kiss_ltl::resolve_atoms(&program, &formula.atoms()) {
                return (error(format!("ltl: proposition `{name}` names no global")), false);
            }
            Work::Ltl(formula)
        }
        // Control-plane ops never reach the queue; guard against future
        // callers.
        Op::Status | Op::Metrics => {
            return (error("control-plane ops are not executable".to_string()), false)
        }
    };
    let mut budget = cfg.budget;
    if let Some(steps) = request.max_steps {
        budget.max_steps = steps;
    }
    if let Some(states) = request.max_states {
        budget.max_states = states as usize;
    }
    if let Some(ms) = request.timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    // A process-unique label keeps check lifecycle events distinct even
    // when clients reuse request ids across submissions.
    let label = format!("{}#{}", request.id, seq.fetch_add(1, Ordering::Relaxed));
    // A fresh token, deliberately NOT the shutdown token: in-flight
    // checks run to completion during a drain.
    let supervisor = Supervisor::new(budget)
        .with_retries(cfg.retries)
        .with_cancel(CancelToken::new())
        .with_observer(cfg.obs.clone());
    let run = supervisor.run_scoped(&label, |budget, cancel, obs| {
        if let Some(action) = kiss_fault::hit(WORKER_POINT) {
            note_fault(obs, WORKER_POINT, action);
            match action {
                // Both flavors surface as a panic here: the supervisor's
                // catch_unwind converts it into a `crashed` verdict that
                // is answered but never cached.
                Action::Error | Action::Panic => {
                    panic!("kiss-fault: injected {} at {WORKER_POINT}", action.name())
                }
                Action::Delay(d) => std::thread::sleep(d),
                Action::Truncate(_) => {}
            }
        }
        let kiss = Kiss::new()
            .with_max_ts(request.max_ts)
            .with_engine(request.engine)
            .with_budget(budget)
            .with_cancel(cancel)
            .with_observer(obs.clone())
            .with_trace(trace, parent)
            .with_validation(false);
        match &work {
            Work::Check => kiss.check_assertions(&program),
            Work::Race(target) => kiss.check_race(&program, *target),
            Work::Ltl(formula) => {
                kiss.check_ltl(&program, formula).expect("propositions pre-resolved")
            }
        }
    });
    match run.result {
        Supervised::Crashed { cause } => (
            CachedVerdict {
                verdict: "crashed".to_string(),
                detail: cause,
                steps: 0,
                states: 0,
            },
            false,
        ),
        Supervised::Completed(outcome) => {
            let (steps, states) =
                outcome.stats().map(|s| (s.steps(), s.states() as u64)).unwrap_or((0, 0));
            let (detail, cacheable) = detail_of(&outcome);
            (
                CachedVerdict {
                    verdict: outcome.verdict_str().to_string(),
                    detail,
                    steps,
                    states,
                },
                cacheable,
            )
        }
    }
}

/// A deterministic one-line detail for each outcome (no wall times, so
/// warm answers are byte-identical to cold ones), plus cacheability.
fn detail_of(outcome: &KissOutcome) -> (String, bool) {
    match outcome {
        KissOutcome::NoErrorFound(_) => ("no error found".to_string(), true),
        KissOutcome::AssertionViolation(report) => (
            format!(
                "assertion violation: {} threads, {} context switches",
                report.mapped.thread_count, report.mapped.context_switches
            ),
            true,
        ),
        KissOutcome::RaceDetected(report) => {
            let kind = |write: bool| if write { "write" } else { "read" };
            (
                format!(
                    "race: {} at {} vs {} at {}",
                    kind(report.first.is_write),
                    report.first.span,
                    kind(report.second.is_write),
                    report.second.span
                ),
                true,
            )
        }
        KissOutcome::LivenessViolated(report) => (
            if report.cycle.is_empty() {
                format!(
                    "liveness violation of `{}`: terminating run, {}-step stem",
                    report.formula,
                    report.stem.len()
                )
            } else {
                format!(
                    "liveness violation of `{}`: {}-step stem, {}-step cycle",
                    report.formula,
                    report.stem.len(),
                    report.cycle.len()
                )
            },
            true,
        ),
        KissOutcome::Inconclusive { reason, .. } => (
            format!("resource bound exceeded on {}", reason.as_str()),
            // Steps/states/memory bounds are functions of the request
            // alone; deadline and cancellation depend on the machine.
            matches!(reason, BoundReason::Steps | BoundReason::States | BoundReason::Memory),
        ),
        KissOutcome::RuntimeError(e) => (format!("runtime error: {e}"), true),
        KissOutcome::TransformFailed(e) => (format!("transform failed: {e}"), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str) -> (Job, Arc<ConnShared>) {
        let conn = Arc::new(ConnShared::new(Arc::new(Doorbell::new())));
        let job = Job {
            request: Request::check(id, "void main() { skip; }"),
            key: 0,
            received: Instant::now(),
            reply: conn.clone(),
            trace: TraceId::NONE,
            queued_span: 0,
        };
        (job, conn)
    }

    #[test]
    fn queue_is_fifo_and_drains_after_close() {
        let queue = Queue::new(8);
        let (a, _conn_a) = job("a");
        let (b, _conn_b) = job("b");
        assert!(queue.try_push(a).is_ok());
        assert!(queue.try_push(b).is_ok());
        assert_eq!(queue.depth(), 2);
        queue.close();
        assert_eq!(queue.pop().unwrap().request.id, "a");
        assert_eq!(queue.pop().unwrap().request.id, "b");
        assert!(queue.pop().is_none(), "closed and drained");
        let (c, conn_c) = job("c");
        let Err(PushError::Closed(rejected)) = queue.try_push(c) else {
            panic!("closed queue accepted a job")
        };
        rejected.reply.send(Outgoing {
            response: Response::error(rejected.request.id, "draining"),
            span: None,
            retires: false,
        });
        let out = conn_c.outbox.lock().unwrap().pop_front().unwrap();
        assert_eq!(out.response.verdict, "error");
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let queue = Queue::new(1);
        let (a, _conn_a) = job("a");
        assert!(queue.try_push(a).is_ok());
        let (b, _conn_b) = job("b");
        let before = Instant::now();
        let Err(PushError::Full(rejected)) = queue.try_push(b) else {
            panic!("full queue must reject immediately")
        };
        // Nonblocking: the driver parks the job itself; the queue never
        // holds the caller.
        assert!(before.elapsed() < Duration::from_millis(100));
        assert_eq!(rejected.request.id, "b");
        // The queue itself is untouched: "a" still waits for a worker.
        assert_eq!(queue.depth(), 1);
        // A pop frees the slot and the retry succeeds.
        assert_eq!(queue.pop().unwrap().request.id, "a");
        assert!(queue.try_push(*rejected).is_ok());
        assert_eq!(queue.peak(), 1);
    }

    #[test]
    fn execute_answers_check_and_race_requests() {
        let cfg = ServeConfig { budget: Budget::small(), ..ServeConfig::default() };
        let seq = AtomicU64::new(0);
        let bodies = ValidBodies::new();
        let run = |req: &Request| execute(req, &cfg, &bodies, &seq, TraceId::NONE, 0);
        let req = Request::check("t", "int x;\nvoid main() { x = 1; assert x == 1; }");
        let (verdict, cacheable) = run(&req);
        assert_eq!(verdict.verdict, "pass");
        assert_eq!(verdict.detail, "no error found");
        assert!(cacheable);
        assert!(verdict.steps > 0);

        let racy = "int g;\nvoid writer() { g = 1; }\nvoid main() { async writer(); g = 2; }";
        let (verdict, cacheable) = run(&Request::race("t", racy, "g"));
        assert_eq!(verdict.verdict, "race");
        assert!(verdict.detail.starts_with("race: "), "{}", verdict.detail);
        assert!(cacheable);

        let (verdict, cacheable) = run(&Request::race("t", racy, "nope"));
        assert_eq!(verdict.verdict, "error");
        assert!(verdict.detail.contains("unknown race target"));
        assert!(!cacheable);

        let (verdict, cacheable) = run(&Request::check("t", "not a program"));
        assert_eq!(verdict.verdict, "error");
        assert!(verdict.detail.starts_with("parse: "));
        assert!(!cacheable);
    }

    #[test]
    fn execute_answers_ltl_requests() {
        let cfg = ServeConfig { budget: Budget::small(), ..ServeConfig::default() };
        let seq = AtomicU64::new(0);
        let bodies = ValidBodies::new();
        let run = |req: &Request| execute(req, &cfg, &bodies, &seq, TraceId::NONE, 0);
        let stuck = "int locked;\nvoid worker() { skip; }\n\
                     void main() { locked = 1; async worker(); while (locked == 1) { skip; } }";
        let released = "int locked;\nvoid worker() { locked = 0; }\n\
                        void main() { locked = 1; async worker(); while (locked == 1) { skip; } }";
        let formula = "G (locked -> F !locked)";

        let (verdict, cacheable) = run(&Request::ltl("t", stuck, formula));
        assert_eq!(verdict.verdict, "liveness");
        assert!(verdict.detail.starts_with("liveness violation of `G"), "{}", verdict.detail);
        assert!(verdict.detail.contains("cycle"), "{}", verdict.detail);
        assert!(cacheable);
        assert!(verdict.steps > 0);

        let (verdict, cacheable) = run(&Request::ltl("t", released, formula));
        assert_eq!(verdict.verdict, "pass");
        assert!(cacheable);

        // A malformed formula and an unknown proposition are typed
        // request errors naming the offender, never crashed verdicts.
        let (verdict, cacheable) = run(&Request::ltl("t", released, "G (locked ->"));
        assert_eq!(verdict.verdict, "error");
        assert!(verdict.detail.starts_with("ltl: "), "{}", verdict.detail);
        assert!(!cacheable);
        let (verdict, cacheable) = run(&Request::ltl("t", released, "F missing"));
        assert_eq!(verdict.verdict, "error");
        assert!(verdict.detail.contains("`missing`"), "{}", verdict.detail);
        assert!(!cacheable);
    }

    #[test]
    fn deadline_inconclusives_are_not_cacheable() {
        let outcome = KissOutcome::Inconclusive {
            stats: Default::default(),
            reason: BoundReason::Deadline,
        };
        assert!(!detail_of(&outcome).1);
        let outcome = KissOutcome::Inconclusive {
            stats: Default::default(),
            reason: BoundReason::Steps,
        };
        assert!(detail_of(&outcome).1);
    }

    #[test]
    fn idle_accounting_only_fires_when_quiet() {
        let activity = ConnActivity::new();
        activity.touch();
        assert!(activity.is_quiet());
        assert!(activity.idle_for() < Duration::from_millis(100));
        activity.pending.fetch_add(1, Ordering::SeqCst);
        assert!(!activity.is_quiet(), "in-flight work suppresses the idle deadline");
        activity.pending.fetch_sub(1, Ordering::SeqCst);
        assert!(activity.is_quiet());
    }
}
