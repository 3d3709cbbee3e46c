//! Chaos suite: the serving stack under deterministic fault injection.
//!
//! Every test arms `kiss-fault` policies and asserts the robustness
//! invariants the subsystem promises:
//!
//! * **no wrong or stale verdicts** — a faulted run answers every
//!   completed request with the same verdict a fault-free run would;
//! * **no deadlocks** — every test drains and joins the server;
//! * **the cache survives restarts** even when the journal was torn
//!   mid-record by a fault;
//! * **accounting balances** — `requests = hits + misses + shed` holds
//!   on the server tally and on the aggregated `kiss-obs` report.
//!
//! The `kiss-fault` registry is process-global, so the whole suite
//! serializes on one mutex and resets the registry at each test entry.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kiss_fault::{Action, Policy, Trigger};
use kiss_obs::{Aggregator, Obs};
use kiss_seq::{Budget, CancelToken};
use kiss_serve::{
    decode_response, submit_batch, submit_batch_with, Endpoint, Request, ServeConfig, ServeStats,
    Server, SubmitOptions,
};

static CHAOS: Mutex<()> = Mutex::new(());

/// Serializes the suite and clears any leftover fault bindings.
fn arm_chaos() -> MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|poison| poison.into_inner());
    kiss_fault::reset();
    guard
}

struct ChaosServer {
    socket: PathBuf,
    shutdown: CancelToken,
    handle: Option<std::thread::JoinHandle<ServeStats>>,
}

impl ChaosServer {
    fn boot(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> ChaosServer {
        let socket = std::env::temp_dir()
            .join(format!("kiss-chaos-{tag}-{}.sock", std::process::id()));
        let mut cfg = ServeConfig {
            socket: Some(socket.clone()),
            jobs: 2,
            budget: Budget::small(),
            ..ServeConfig::default()
        };
        tweak(&mut cfg);
        let server = Server::bind(cfg).expect("bind unix socket");
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&token).expect("serve"));
        ChaosServer { socket, shutdown, handle: Some(handle) }
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    fn stop(mut self) -> ServeStats {
        self.shutdown.cancel();
        self.handle.take().expect("still running").join().expect("server thread")
    }
}

impl Drop for ChaosServer {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kiss-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch() -> Vec<Request> {
    let racy = "int g;\nvoid writer() { g = 1; }\nvoid main() { async writer(); g = 2; }";
    let clean = "int x;\nvoid main() { x = 1; assert x == 1; }";
    let fails = "int y;\nvoid main() { y = 2; assert y == 3; }";
    vec![
        Request::race("racy", racy, "g"),
        Request::check("clean", clean),
        Request::check("fails", fails),
    ]
}

fn balance(stats: &ServeStats) {
    assert_eq!(
        stats.requests,
        stats.cache_hits + stats.cache_misses + stats.shed,
        "requests = hits + misses + shed must balance: {stats:?}"
    );
}

#[test]
fn fixed_seed_fault_schedule_reproduces_fault_free_verdicts() {
    let _chaos = arm_chaos();

    // Ground truth: a fault-free run.
    let server = ChaosServer::boot("truth", |_| {});
    let truth = submit_batch(&server.endpoint(), &batch()).expect("fault-free submit");
    balance(&server.stop());

    // The same batch under a seeded schedule of journal errors and read
    // delays — faults that can slow or un-cache work but never change a
    // verdict. Two independent faulted runs must both match the truth.
    for round in 0..2 {
        kiss_fault::reset();
        kiss_fault::configure("seed=42;serve.journal.append=error%60;serve.conn.read=delay(1)%30")
            .expect("valid fault spec");
        let server = ChaosServer::boot(&format!("seeded-{round}"), |_| {});
        let faulted = submit_batch(&server.endpoint(), &batch()).expect("faulted submit");
        for (t, f) in truth.responses.iter().zip(&faulted.responses) {
            assert_eq!(t.id, f.id);
            assert_eq!(t.verdict, f.verdict, "round {round}: verdict drifted under faults");
            assert_eq!(t.detail, f.detail, "round {round}: detail drifted under faults");
            assert_eq!((t.steps, t.states), (f.steps, f.states));
        }
        balance(&server.stop());
    }
    kiss_fault::reset();
}

#[test]
fn journal_torn_mid_record_still_revives_surviving_entries() {
    let _chaos = arm_chaos();
    let cache_dir = scratch_dir("torn-journal");

    // Two composed faults: the first executed request's record is torn
    // mid-write (jobs=1 makes that deterministic), AND the drain-time
    // compaction fails — otherwise compaction would rewrite the journal
    // from memory and heal the tear before the restart ever sees it.
    kiss_fault::set(
        "serve.journal.append",
        Policy { action: Action::Truncate(7), trigger: Trigger::Times(1) },
    );
    kiss_fault::set(
        "serve.journal.compact",
        Policy { action: Action::Error, trigger: Trigger::Always },
    );
    let server = ChaosServer::boot("tear", |cfg| {
        cfg.jobs = 1;
        cfg.cache_dir = Some(cache_dir.clone());
    });
    let cold = submit_batch(&server.endpoint(), &batch()).expect("cold submit");
    balance(&server.stop());
    kiss_fault::reset();

    // Restart fault-free. The torn head has no newline, so the next
    // append fused with it into one corrupt line: replay must skip that
    // line on its checksum (never half-parse it into a wrong verdict)
    // and revive the intact tail record.
    let server = ChaosServer::boot("revive", |cfg| {
        cfg.jobs = 1;
        cfg.cache_dir = Some(cache_dir.clone());
    });
    let warm = submit_batch(&server.endpoint(), &batch()).expect("post-restart submit");
    for (c, w) in cold.responses.iter().zip(&warm.responses) {
        assert_eq!(c.verdict, w.verdict, "a torn journal must never change a verdict");
        assert_eq!(c.detail, w.detail);
    }
    let stats = server.stop();
    balance(&stats);
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (1, 2),
        "the corrupt fused line re-executes; the intact record hits"
    );

    // The warm run drained cleanly, so compaction healed the journal:
    // a third boot replays a canonical file and answers all from cache.
    let server = ChaosServer::boot("healed", |cfg| {
        cfg.jobs = 1;
        cfg.cache_dir = Some(cache_dir.clone());
    });
    let healed = submit_batch(&server.endpoint(), &batch()).expect("post-heal submit");
    assert_eq!((healed.hits, healed.misses), (3, 0), "compaction healed the journal");
    balance(&server.stop());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_worker_panic_is_isolated_answered_as_crashed_and_never_cached() {
    let _chaos = arm_chaos();
    kiss_fault::set(
        "serve.worker",
        Policy { action: Action::Panic, trigger: Trigger::Times(1) },
    );
    let server = ChaosServer::boot("panic", |cfg| cfg.jobs = 1);
    let request = [Request::check("boom", "int x;\nvoid main() { x = 1; assert x == 1; }")];

    let first = submit_batch(&server.endpoint(), &request).expect("faulted submit");
    assert_eq!(first.responses[0].verdict, "crashed", "{:?}", first.responses[0]);
    assert!(first.responses[0].detail.contains("kiss-fault"), "{}", first.responses[0].detail);

    // The panic budget (Times(1)) is spent; the same request now runs
    // clean — and MUST re-run: a crashed verdict may never be served
    // from the cache.
    let second = submit_batch(&server.endpoint(), &request).expect("recovered submit");
    assert_eq!(second.responses[0].verdict, "pass");
    assert_eq!(second.misses, 1, "the crashed verdict was not cached");

    let stats = server.stop();
    balance(&stats);
    assert_eq!(stats.requests, 2);
    kiss_fault::reset();
}

#[test]
fn a_saturated_queue_sheds_with_typed_overloaded_responses() {
    let _chaos = arm_chaos();
    // Every execution sleeps, the queue holds one job, and admission
    // gives up quickly: pipelining four distinct requests through one
    // connection must shed at least one of them.
    kiss_fault::set(
        "serve.worker",
        Policy { action: Action::Delay(Duration::from_millis(400)), trigger: Trigger::Always },
    );
    let server = ChaosServer::boot("saturate", |cfg| {
        cfg.jobs = 1;
        cfg.max_queue = 1;
        cfg.admission_wait = Duration::from_millis(50);
    });
    let requests: Vec<Request> = (0..4)
        .map(|i| {
            Request::check(
                format!("q{i}"),
                format!("int x;\nvoid main() {{ x = {i}; assert x == {i}; }}"),
            )
        })
        .collect();
    let outcome = submit_batch(&server.endpoint(), &requests).expect("saturating submit");

    let shed: Vec<_> =
        outcome.responses.iter().filter(|r| r.verdict == "overloaded").collect();
    assert!(!shed.is_empty(), "a saturated queue must shed: {:?}", outcome.responses);
    for response in &shed {
        assert!(
            response.detail.contains("queue full"),
            "sheds are typed, not generic errors: {response:?}"
        );
    }
    for response in &outcome.responses {
        assert!(
            response.verdict == "pass" || response.verdict == "overloaded",
            "no wrong verdicts under overload: {response:?}"
        );
    }

    let stats = server.stop();
    balance(&stats);
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.shed, shed.len() as u64);
    kiss_fault::reset();
}

#[test]
fn a_dropped_connection_is_survived_by_client_reconnect() {
    let _chaos = arm_chaos();
    // The first response write breaks the pipe; the resilient client
    // reconnects and re-asks the (idempotent) request.
    kiss_fault::set(
        "serve.conn.write",
        Policy { action: Action::Error, trigger: Trigger::Times(1) },
    );
    let server = ChaosServer::boot("drop", |_| {});
    // The broken pipe kills the writer thread but the socket stays open
    // through the reader's clone, so the client only notices via its
    // silence deadline — keep it short.
    let opts = SubmitOptions {
        retries: 3,
        backoff: Duration::from_millis(5),
        request_timeout: Some(Duration::from_millis(500)),
        ..SubmitOptions::default()
    };
    let request = [Request::check("durable", "int x;\nvoid main() { x = 1; assert x == 1; }")];
    let outcome =
        submit_batch_with(&server.endpoint(), &request, &opts).expect("resilient submit");
    assert_eq!(outcome.responses[0].verdict, "pass");
    assert!(outcome.retries >= 1, "the drop must have forced a reconnect");

    let stats = server.stop();
    balance(&stats);
    assert!(kiss_fault::total_fired() >= 1, "the write fault fired");
    kiss_fault::reset();
}

#[test]
fn a_frame_sent_right_after_an_answer_is_read_without_backoff() {
    let _chaos = arm_chaos();
    use std::io::{BufRead, BufReader, Write};
    // Each check keeps the driver idle for 30 ms, long enough for its
    // backoff to reach the ceiling. The worker's answer rings the bell;
    // the client's next frame, sent on the same connection right after
    // it, rings nothing, so the driver must still be polling to read it.
    kiss_fault::set(
        "serve.worker",
        Policy { action: Action::Delay(Duration::from_millis(30)), trigger: Trigger::Always },
    );
    let server = ChaosServer::boot("wakeup", |cfg| cfg.jobs = 1);
    let mut stream =
        std::os::unix::net::UnixStream::connect(&server.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    let mut round_trips = Vec::new();
    for i in 0..10 {
        let check = Request::check(
            format!("w{i}"),
            format!("int x;\nvoid main() {{ x = {i}; assert x == {i}; }}"),
        );
        stream.write_all(format!("{}\n", check.to_json()).as_bytes()).expect("send check");
        line.clear();
        reader.read_line(&mut line).expect("check answer");
        let answer = decode_response(line.trim_end()).expect("decode check answer");
        assert_eq!((answer.id, answer.verdict), (format!("w{i}"), "pass".to_string()));

        let ping = format!("{}\n", Request::status(format!("s{i}")).to_json());
        let sent = Instant::now();
        stream.write_all(ping.as_bytes()).expect("send status");
        line.clear();
        reader.read_line(&mut line).expect("status reply");
        round_trips.push(sent.elapsed());
        let reply = decode_response(line.trim_end()).expect("decode status reply");
        assert_eq!(reply.id, format!("s{i}"));
    }
    // Half the driver's 5 ms backoff ceiling: a driver that slept on
    // after flushing the answer reads the ping only at its next tick.
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(2500),
        "a ping after an answer waited out the backoff: median {median:?}, all {round_trips:?}"
    );
    balance(&server.stop());
    kiss_fault::reset();
}

#[test]
fn idle_connections_without_inflight_work_are_closed() {
    let _chaos = arm_chaos();
    use std::io::Read;
    let server = ChaosServer::boot("idle", |cfg| {
        cfg.idle_timeout = Some(Duration::from_millis(150));
    });
    let mut stream =
        std::os::unix::net::UnixStream::connect(&server.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // Send nothing: the server must hang up on its own.
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).expect("clean EOF from the idle reaper");
    assert_eq!(n, 0, "expected EOF, got {n} bytes");
    let stats = server.stop();
    assert_eq!(stats.requests, 0);
}

#[test]
fn request_accounting_balances_on_the_observed_report_under_chaos() {
    let _chaos = arm_chaos();
    // Faults on three layers at once: slow workers (forcing sheds), a
    // journal error, and an occasional read delay. The aggregated
    // kiss-obs report must still balance exactly and must record the
    // injections and sheds it saw.
    kiss_fault::configure(
        "seed=7;serve.worker=delay(300)*2;serve.journal.append=error*1;serve.conn.read=delay(1)%20",
    )
    .expect("valid fault spec");
    let agg = Aggregator::new();
    let server = ChaosServer::boot("balance", |cfg| {
        cfg.jobs = 1;
        cfg.max_queue = 1;
        cfg.admission_wait = Duration::from_millis(40);
        cfg.obs = Obs::new(agg.clone());
    });
    let requests: Vec<Request> = (0..5)
        .map(|i| {
            Request::check(
                format!("b{i}"),
                format!("int x;\nvoid main() {{ x = {i}; assert x == {i}; }}"),
            )
        })
        .collect();
    let outcome = submit_batch(&server.endpoint(), &requests).expect("chaotic submit");
    assert_eq!(outcome.responses.len(), 5, "every request is answered, shed or not");

    let stats = server.stop();
    balance(&stats);
    let report = agg.report();
    assert_eq!(report.requests, stats.requests);
    assert_eq!(report.cache_hits, stats.cache_hits);
    assert_eq!(report.cache_misses, stats.cache_misses);
    assert_eq!(report.requests_shed, stats.shed);
    assert_eq!(
        report.requests,
        report.cache_hits + report.cache_misses + report.requests_shed,
        "the observed report must balance: {}",
        report.to_json()
    );
    assert!(report.faults_injected >= 1, "the journal fault was observed");
    kiss_fault::reset();
}
