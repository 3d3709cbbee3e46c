//! serve-warm and serve-cold: the daemon in-process, driven over one
//! persistent unix-socket connection by a one-thread closed-loop load
//! generator (one request in flight; the next is sent when the answer
//! arrives).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kiss_seq::{Budget, CancelToken};
use kiss_serve::{
    decode_frame, decode_response, Batch, CacheStatus, CachedVerdict, Frame, Op, Request, Response,
    ResultCache, ServeConfig, ServeSnapshot, ServeStats, Server,
};

use crate::gen::{self, CorpusEntry, Mode};
use crate::stats::{classify, percentile, Recorder};
use crate::trace::{check_layered, layer_metrics, CheckRecord, Tracer, Work};
use crate::{Outcome, RunCfg, ServeLayers};

/// The serve budget. At 200k steps / 20k states every corpus verdict
/// equals its seeded class; at the 50k / 8k of older harnesses some
/// fields come back inconclusive, and the reference would be wrong.
pub fn serve_budget() -> Budget {
    Budget::steps_states(200_000, 20_000)
}

/// A reply slower than this counts as a failed op.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-ups per round. A round runs before the timed phase and after
/// every window, each set-up on a daemon of its own, so the samples span
/// the run and `setup_s`, their median, rides out the stretches of
/// seconds in which a shared CPU runs slow. A cold boot takes about half
/// a millisecond, mostly thread spawns and wake-ups, so it takes more
/// samples than the ~60 ms warm boot and fill.
const WARM_ROUND: usize = 3;
const COLD_ROUND: usize = 5;
/// Draws pre-computed for serve-warm (the sequence wraps if a run
/// outlasts it).
const WARM_DRAWS: usize = 400_000;
/// serve-cold frames are encoded this many at a time, with the clock
/// paused, so encoding never lands in a latency and at most one chunk of
/// ~23 KB frames is alive.
const COLD_CHUNK: usize = 64;
/// Passes over the corpus in serve-cold's op order; a run that outlasts
/// them wraps (the per-op tag keeps every key distinct).
const COLD_ROUNDS: usize = 3;
/// Served ops the traced run replays (the first ones): more than one
/// pass over the corpus on serve-cold, so the replay holds the corpus
/// class mix, while a traced run stays about as long as an untraced one.
const REPLAY_OPS: usize = 1000;
/// Distinct request ids on the wire.
const IDS: usize = 64;
/// Root-span op ids of serve-warm's replayed cache fill.
const FILL_OP_BASE: u32 = 1 << 30;
/// Byte budget of one cache-fill batch frame (the client library's).
const BATCH_BYTES: usize = 256 * 1024;

/// One client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one encoded frame and reads its answer.
    pub fn roundtrip(&mut self, frame: &[u8]) -> io::Result<Response> {
        self.writer.write_all(frame)?;
        self.answer()
    }

    fn answer(&mut self) -> io::Result<Response> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        decode_response(self.line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message()))
    }

    /// Sends `requests` as pipelined batch frames, the way the client
    /// library's `submit_batch` does, and returns the answers in request
    /// order. Ids must be distinct.
    fn batch(&mut self, requests: &[Request]) -> io::Result<Vec<Response>> {
        let entries: Vec<String> = requests.iter().map(Request::to_json).collect();
        let mut start = 0;
        while start < entries.len() {
            let mut end = start + 1;
            let mut bytes = entries[start].len();
            while end < entries.len() && bytes + entries[end].len() < BATCH_BYTES {
                bytes += entries[end].len();
                end += 1;
            }
            let mut frame = Batch::frame_json(&format!("b{start}"), &entries[start..end]);
            frame.push('\n');
            self.writer.write_all(frame.as_bytes())?;
            start = end;
        }
        let mut answers: Vec<Option<Response>> = vec![None; requests.len()];
        for _ in 0..requests.len() {
            let response = self.answer()?;
            let slot = requests
                .iter()
                .position(|r| r.id == response.id)
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("answer for unknown id `{}`", response.id),
                    )
                })?;
            answers[slot] = Some(response);
        }
        answers
            .into_iter()
            .map(|a| a.ok_or_else(|| io::Error::other("a request went unanswered")))
            .collect()
    }

    /// The daemon's `metrics` snapshot (control plane: not counted in
    /// the request tally it reports).
    pub fn scrape(&mut self) -> io::Result<ServeSnapshot> {
        let response = self.roundtrip(&frame(&Request::metrics("m")))?;
        ServeSnapshot::parse(&response.detail).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "unparsable metrics snapshot")
        })
    }
}

/// A request encoded once, newline included.
pub fn frame(request: &Request) -> Vec<u8> {
    let mut text = request.to_json();
    text.push('\n');
    text.into_bytes()
}

/// The daemon, running in this process with its default threads and a
/// journaled cache in its own directory.
pub struct Daemon {
    dir: PathBuf,
    shutdown: CancelToken,
    handle: Option<JoinHandle<io::Result<ServeStats>>>,
    pub conn: Conn,
}

impl Daemon {
    pub fn boot(dir: &Path) -> io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        // A relative path: the checkout may sit deeper than a unix
        // socket path may be long.
        let sock = dir.join("d.sock");
        let cfg = ServeConfig {
            socket: Some(sock.clone()),
            cache_dir: Some(dir.join("cache")),
            budget: serve_budget(),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg)?;
        // Connect before the acceptor runs: the connection waits in the
        // backlog and the acceptor's first poll takes it, where a later
        // connect would wait out a 0-20 ms accept tick.
        let conn = Conn::connect(&sock)?;
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&token));
        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            shutdown,
            handle: Some(handle),
            conn,
        };
        let ping = daemon.conn.roundtrip(&frame(&Request::status("ping")))?;
        if ping.verdict != "ok" {
            return Err(io::Error::other(format!(
                "daemon ping answered {}",
                ping.verdict
            )));
        }
        Ok(daemon)
    }

    /// Drains the daemon and removes its directory.
    pub fn stop(mut self) -> io::Result<ServeStats> {
        self.shutdown.cancel();
        let handle = self.handle.take().expect("a running daemon has a handle");
        handle
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the load generator saw for one op.
struct Served {
    latency_ms: f64,
    verdict: String,
    steps: u64,
    states: u64,
    cache: CacheStatus,
}

/// One timed op over the connection: send, await the answer, check it.
fn serve_one(
    conn: &mut Conn,
    frame: &[u8],
    expected: &str,
    rec: &mut Recorder,
    served: &mut Vec<Served>,
) -> io::Result<()> {
    let t0 = Instant::now();
    match conn.roundtrip(frame) {
        Ok(r) => {
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            rec.record(latency_ms, classify(&r.verdict, expected));
            served.push(Served {
                latency_ms,
                verdict: r.verdict,
                steps: r.steps,
                states: r.states,
                cache: r.cache,
            });
            Ok(())
        }
        Err(e) => {
            rec.lost();
            Err(e)
        }
    }
}

/// The daemon's request path for one frame, taken apart into layers:
/// decode, cache key, lookup, and on a miss the check and the insert,
/// then the answer's encoding. Misses push their check record.
fn serve_layered(
    t: &mut Tracer,
    cache: &ResultCache,
    line: &str,
    misses: &mut Vec<CheckRecord>,
) -> Response {
    let request = match t.span("decode", || decode_frame(line)) {
        Ok(Frame::Single(request)) => request,
        Ok(Frame::Batch(_)) => return Response::error("", "unexpected batch frame"),
        Err(e) => return Response::error("", e.message()),
    };
    let key = t.span("cache_key", || request.cache_key());
    let response = match t.span("lookup", || cache.lookup(key)) {
        Some(v) => Response {
            id: request.id,
            verdict: v.verdict,
            detail: v.detail,
            steps: v.steps,
            states: v.states,
            cache: CacheStatus::Hit,
        },
        None => {
            let Op::Race { target } = &request.op else {
                return Response::error(request.id, "serve workloads send race checks only");
            };
            let rec = check_layered(
                t,
                &request.source,
                &Work::Race(target),
                Mode::Explicit,
                serve_budget(),
                false,
                1,
            );
            let verdict = CachedVerdict {
                verdict: rec.verdict.to_string(),
                detail: rec.detail.clone(),
                steps: rec.stats.steps,
                states: rec.stats.states as u64,
            };
            t.span("insert", || cache.insert(key, verdict.clone()));
            misses.push(rec);
            Response {
                id: request.id,
                verdict: verdict.verdict,
                detail: verdict.detail,
                steps: verdict.steps,
                states: verdict.states,
                cache: CacheStatus::Miss,
            }
        }
    };
    std::hint::black_box(t.span("encode", || response.to_json()));
    response
}

/// What one replay saw: the spans, the mean frame size, the answers,
/// the miss records, and the wall time spent in the ops themselves.
struct Replay {
    tracer: Tracer,
    frame_bytes: f64,
    answers: Vec<Response>,
    misses: Vec<CheckRecord>,
    wall_s: f64,
}

/// One replay of the served ops through [`serve_layered`] on a fresh
/// journaled cache holding the `fill`.
fn replay(
    dir: &Path,
    enabled: bool,
    fill: &[(u128, CachedVerdict)],
    ops: usize,
    frame_of: &dyn Fn(usize) -> Vec<u8>,
) -> io::Result<Replay> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let cache = ResultCache::open(dir)?;
    let mut tracer = Tracer::new(enabled);
    for (i, (key, verdict)) in fill.iter().enumerate() {
        tracer.op(FILL_OP_BASE + i as u32, |t| {
            t.span("insert", || cache.insert(*key, verdict.clone()))
        });
    }
    let mut answers = Vec::with_capacity(ops);
    let mut misses = Vec::new();
    let mut wall = Duration::ZERO;
    let mut frame_bytes = 0.0;
    for op in 0..ops {
        let bytes = frame_of(op);
        frame_bytes += bytes.len() as f64;
        let line = std::str::from_utf8(&bytes[..bytes.len() - 1]).expect("frames are UTF-8");
        let t0 = Instant::now();
        answers.push(tracer.op(op as u32, |t| serve_layered(t, &cache, line, &mut misses)));
        wall += t0.elapsed();
    }
    drop(cache);
    std::fs::remove_dir_all(dir)?;
    let frame_bytes = frame_bytes / ops.max(1) as f64;
    Ok(Replay {
        tracer,
        frame_bytes,
        answers,
        misses,
        wall_s: wall.as_secs_f64(),
    })
}

/// The traced half of a serve run: replay the first served ops
/// in-process with the tracer off and on, check the replay agrees with
/// what the daemon answered, and derive the per-layer metrics.
fn traced(
    cfg: &RunCfg,
    served: &[Served],
    frame_of: &dyn Fn(usize) -> Vec<u8>,
    fill: &[(u128, CachedVerdict)],
    before: &ServeSnapshot,
    after: &ServeSnapshot,
    problems: &mut Vec<String>,
) -> io::Result<Vec<crate::stats::Metric>> {
    let ops = served.len().min(REPLAY_OPS);
    let off = replay(&cfg.run_dir.join("replay-off"), false, fill, ops, frame_of)?;
    let on = replay(&cfg.run_dir.join("replay-on"), true, fill, ops, frame_of)?;
    for (op, (s, r)) in served.iter().zip(&on.answers).enumerate() {
        if s.verdict != r.verdict
            || s.steps != r.steps
            || s.states != r.states
            || s.cache != r.cache
        {
            problems.push(format!(
                "op {op}: replay answered {} ({} steps, {} states, {}) but the daemon {} ({} steps, {} states, {})",
                r.verdict, r.steps, r.states, r.cache.as_str(), s.verdict, s.steps, s.states, s.cache.as_str()
            ));
            break;
        }
    }
    on.tracer.write_jsonl(&cfg.spans_path)?;

    let t = &on.tracer;
    let mut overhead: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.parent == 0 && s.op < FILL_OP_BASE)
        .map(|s| served[s.op as usize].latency_ms - (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    overhead.sort_by(f64::total_cmp);
    let delta = |f: fn(&ServeSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let (hits, misses) = (delta(|s| s.hits), delta(|s| s.misses));
    let serve = ServeLayers {
        decode_ms: t.mean_ms("decode"),
        cache_key_ms: t.mean_ms("cache_key"),
        encode_ms: t.mean_ms("encode"),
        frame_kb: on.frame_bytes / 1024.0,
        lookup_us: t.mean_ms("lookup") * 1e3,
        insert_us: t.mean_ms("insert") * 1e3,
        hit_ratio: hits / (hits + misses),
        shard_contended_ratio: delta(|s| s.shard_contended) / delta(|s| s.shard_acquires),
        journal_bytes_per_entry: after.journal_bytes as f64 / after.journal_records as f64,
        overhead_p50_ms: percentile(&overhead, 50.0),
        overhead_p90_ms: percentile(&overhead, 90.0),
        queue_peak: after.queue_peak as f64,
        shed: delta(|s| s.shed),
    };
    let overhead_pct = (on.wall_s / off.wall_s - 1.0) * 100.0;
    Ok(crate::per_layer(
        layer_metrics(t, &on.misses),
        &serve,
        overhead_pct,
    ))
}

/// serve-warm: single-request frames drawn with repeats from a pool the
/// set-up put in the cache, so every op takes the hit path. The fill
/// travels as batch frames over the already open connection: a second
/// connection would wait out an accept tick of 0-20 ms inside set-up.
pub fn serve_warm(cfg: &RunCfg) -> io::Result<Outcome> {
    let mut problems = Vec::new();
    let (pool, expected) = {
        let entries = gen::corpus();
        let picked = gen::warm_pool(cfg.seed, &entries);
        let pool: Vec<Request> = picked
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let entry: &CorpusEntry = &entries[e];
                Request::race(
                    format!("w{i}"),
                    gen::tagged_source(entry, cfg.seed, i),
                    &entry.race_spec,
                )
            })
            .collect();
        let expected: Vec<&'static str> = picked.iter().map(|&e| entries[e].expected()).collect();
        (pool, expected)
    };
    let frames: Vec<Vec<u8>> = pool.iter().map(frame).collect();
    let draw = gen::warm_draw(cfg.seed, pool.len(), WARM_DRAWS);
    crate::stats::reset_peak_rss();

    let mut setup_s = Vec::new();
    let mut boots = 0;
    let mut setup = |setup_s: &mut Vec<f64>, problems: &mut Vec<String>| {
        let t0 = Instant::now();
        let mut d = Daemon::boot(&cfg.run_dir.join(format!("warm{boots}")))?;
        boots += 1;
        let answers = d.conn.batch(&pool)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        for (i, r) in answers.iter().enumerate() {
            if r.verdict != expected[i] {
                problems.push(format!(
                    "cache fill: {} answered {}, expected {}",
                    pool[i].id, r.verdict, expected[i]
                ));
            }
        }
        io::Result::Ok((d, answers))
    };
    // The first round's last daemon serves the timed phase.
    for _ in 1..WARM_ROUND {
        setup(&mut setup_s, &mut problems)?.0.stop()?;
    }
    let (mut d, fill) = setup(&mut setup_s, &mut problems)?;

    let before = if cfg.trace {
        Some(d.conn.scrape()?)
    } else {
        None
    };
    let mut served = Vec::new();
    let mut rec = Recorder::start(cfg.seconds);
    while !rec.done() {
        let i = draw[served.len() % draw.len()];
        if let Err(e) = serve_one(&mut d.conn, &frames[i], expected[i], &mut rec, &mut served) {
            problems.push(format!("i/o: {e}"));
            break;
        }
        if rec.close_if_full() {
            rec.pause();
            for _ in 0..WARM_ROUND {
                setup(&mut setup_s, &mut problems)?.0.stop()?;
            }
            rec.resume();
        }
    }
    let phase = rec.finish();
    let after = if cfg.trace {
        Some(d.conn.scrape()?)
    } else {
        None
    };
    d.stop()?;
    if let Some(op) = served.iter().position(|s| s.cache != CacheStatus::Hit) {
        problems.push(format!(
            "op {op} missed the cache; serve-warm frames must all hit"
        ));
    }

    let layers = match (before, after) {
        (Some(before), Some(after)) => {
            let fill: Vec<(u128, CachedVerdict)> = pool
                .iter()
                .zip(&fill)
                .map(|(req, r)| {
                    let v = CachedVerdict {
                        verdict: r.verdict.clone(),
                        detail: r.detail.clone(),
                        steps: r.steps,
                        states: r.states,
                    };
                    (req.cache_key(), v)
                })
                .collect();
            let frame_of = |op: usize| frames[draw[op % draw.len()]].clone();
            traced(
                cfg,
                &served,
                &frame_of,
                &fill,
                &before,
                &after,
                &mut problems,
            )?
        }
        _ => Vec::new(),
    };
    Ok(Outcome {
        setup_s,
        phase,
        layers,
        problems,
    })
}

/// serve-cold: race checks with distinct cache keys, in a seeded order
/// over both driver corpora, so every op misses and is checked and
/// written to the journal. The traced run adds the explore leg for the
/// engines race checks do not run.
pub fn serve_cold(cfg: &RunCfg) -> io::Result<Outcome> {
    let mut problems = Vec::new();
    let entries = gen::corpus();
    let order = gen::cold_order(cfg.seed, &entries, COLD_ROUNDS);
    let request_of = |n: usize| {
        let entry = &entries[order[n % order.len()]];
        Request::race(
            format!("c{}", n % IDS),
            gen::tagged_source(entry, cfg.seed, n),
            &entry.race_spec,
        )
    };
    let expected_of = |n: usize| entries[order[n % order.len()]].expected();
    crate::stats::reset_peak_rss();

    let mut setup_s = Vec::new();
    let mut boots = 0;
    let mut setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let d = Daemon::boot(&cfg.run_dir.join(format!("cold{boots}")))?;
        boots += 1;
        setup_s.push(t0.elapsed().as_secs_f64());
        io::Result::Ok(d)
    };
    // The first round's last daemon serves the timed phase.
    for _ in 1..COLD_ROUND {
        setup(&mut setup_s)?.stop()?;
    }
    let mut d = setup(&mut setup_s)?;

    let before = if cfg.trace {
        Some(d.conn.scrape()?)
    } else {
        None
    };
    let mut served: Vec<Served> = Vec::new();
    let mut rec = Recorder::start(cfg.seconds);
    'run: while !rec.done() {
        let start = served.len();
        rec.pause();
        let chunk: Vec<Vec<u8>> = (start..start + COLD_CHUNK)
            .map(|n| frame(&request_of(n)))
            .collect();
        rec.resume();
        for (j, bytes) in chunk.iter().enumerate() {
            if let Err(e) = serve_one(
                &mut d.conn,
                bytes,
                expected_of(start + j),
                &mut rec,
                &mut served,
            ) {
                problems.push(format!("i/o: {e}"));
                break 'run;
            }
            if rec.close_if_full() {
                rec.pause();
                for _ in 0..COLD_ROUND {
                    setup(&mut setup_s)?.stop()?;
                }
                rec.resume();
            }
            if rec.done() {
                break 'run;
            }
        }
    }
    let phase = rec.finish();
    let after = if cfg.trace {
        Some(d.conn.scrape()?)
    } else {
        None
    };
    d.stop()?;
    if let Some(op) = served.iter().position(|s| s.cache != CacheStatus::Miss) {
        problems.push(format!(
            "op {op} was answered from the cache; serve-cold keys must be distinct"
        ));
    }

    let layers = match (before, after) {
        (Some(before), Some(after)) => {
            let frame_of = |n: usize| frame(&request_of(n));
            let mut layers = traced(cfg, &served, &frame_of, &[], &before, &after, &mut problems)?;
            let leg = crate::explore::explore_leg(cfg, &mut problems)?;
            crate::overlay(&mut layers, leg);
            layers
        }
        _ => Vec::new(),
    };
    Ok(Outcome {
        setup_s,
        phase,
        layers,
        problems,
    })
}
