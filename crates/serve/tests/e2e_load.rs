//! End-to-end load test: one server on a unix socket and a loopback
//! TCP port at default queue bounds, a cold batch, then 16 persistent
//! closed-loop clients per transport against the warm cache. Nothing
//! may be shed, every warm answer must be a hit with the cold verdict,
//! and the event stream must balance the way `obs_verify` requires of
//! a served trace.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use kiss_obs::sinks::ChannelSink;
use kiss_obs::{Aggregator, Event, Obs, Observer};
use kiss_seq::{Budget, CancelToken};
use kiss_serve::{
    decode_response, fetch_metrics, submit_batch, CacheStatus, Endpoint, Request, Response,
    ServeConfig, ServeSnapshot, ServeStats, Server,
};

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 15;

struct TestServer {
    socket: PathBuf,
    port: u16,
    shutdown: CancelToken,
    handle: Option<std::thread::JoinHandle<ServeStats>>,
}

impl TestServer {
    fn boot(obs: Obs) -> TestServer {
        let socket = std::env::temp_dir()
            .join(format!("kiss-serve-e2e-load-{}.sock", std::process::id()));
        let cfg = ServeConfig {
            socket: Some(socket.clone()),
            port: Some(0),
            budget: Budget::small(),
            obs,
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).expect("bind unix socket and loopback port");
        let port = server.local_port().expect("ephemeral port");
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&token).expect("serve"));
        TestServer { socket, port, shutdown, handle: Some(handle) }
    }

    fn unix(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    fn tcp(&self) -> Endpoint {
        Endpoint::Tcp(format!("127.0.0.1:{}", self.port))
    }

    fn metrics(&self) -> ServeSnapshot {
        fetch_metrics(&self.unix(), Duration::from_secs(10)).expect("metrics scrape")
    }

    fn stop(mut self) -> ServeStats {
        self.shutdown.cancel();
        self.handle.take().expect("still running").join().expect("server thread")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Twelve requests with distinct cache keys: racy writers, writers of
/// a disjoint global, passing and failing assertions.
fn cold_batch() -> Vec<Request> {
    let mut batch = Vec::new();
    for i in 0..4 {
        let main = "void main() { async writer(); g = 9; }";
        let racy = format!("int g;\nvoid writer() {{ g = {i}; }}\n{main}");
        let disjoint = format!("int g;\nint h;\nvoid writer() {{ h = {i}; }}\n{main}");
        let assertion = format!("int x;\nvoid main() {{ x = {i}; assert x == {}; }}", i % 2);
        batch.push(Request::race(format!("racy-{i}"), racy, "g"));
        batch.push(Request::race(format!("disjoint-{i}"), disjoint, "g"));
        batch.push(Request::check(format!("assert-{i}"), assertion));
    }
    batch
}

/// One closed-loop client: a persistent connection that, once every
/// client is connected, sends its requests one at a time, and keeps the
/// connection open until every client is done so the server's open
/// connection count reaches the full client count.
fn client(endpoint: &Endpoint, requests: &[Request], barrier: &Barrier) -> Vec<Response> {
    let (reader, mut writer) = endpoint.connect().expect("connect");
    let mut lines = BufReader::new(reader);
    barrier.wait();
    let mut answers = Vec::with_capacity(requests.len());
    for request in requests {
        writeln!(writer, "{}", request.to_json()).expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        // The client's reads poll with a short timeout; keep waiting.
        loop {
            match lines.read_line(&mut line) {
                Ok(0) => panic!("server closed mid-leg"),
                Ok(_) => break,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
                Err(e) => panic!("read: {e}"),
            }
        }
        answers.push(decode_response(line.trim_end()).expect("response frame"));
    }
    barrier.wait();
    answers
}

/// Runs one warm leg and checks every answer against the cold verdicts;
/// returns the requests the server shed during the leg.
fn warm_leg(server: &TestServer, endpoint: &Endpoint, leg: &str, cold: &[Response]) -> u64 {
    let batch = cold_batch();
    // Interleave the batch so concurrent lookups spread over the cache
    // shards.
    let slot = |c: usize, i: usize| (c + i * CLIENTS) % batch.len();
    let before = server.metrics();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let requests: Vec<Request> = (0..REQUESTS_PER_CLIENT)
                .map(|i| {
                    let mut request = batch[slot(c, i)].clone();
                    request.id = format!("{leg}-c{c}-{i}");
                    request
                })
                .collect();
            let (endpoint, barrier) = (endpoint.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || client(&endpoint, &requests, &barrier))
        })
        .collect();
    for (c, handle) in clients.into_iter().enumerate() {
        let answers = handle.join().expect("client thread");
        for (i, answer) in answers.iter().enumerate() {
            let want = &cold[slot(c, i)];
            assert_eq!(answer.id, format!("{leg}-c{c}-{i}"));
            assert_eq!(answer.cache, CacheStatus::Hit, "{leg}: {} missed warm", answer.id);
            assert_eq!(
                (&answer.verdict, &answer.detail),
                (&want.verdict, &want.detail),
                "{leg}: {} answered differently warm",
                answer.id
            );
        }
    }
    let after = server.metrics();
    assert_eq!(after.hits - before.hits, (CLIENTS * REQUESTS_PER_CLIENT) as u64, "{leg}");
    assert_eq!(after.misses, before.misses, "{leg}");
    after.shed - before.shed
}

/// `requests_received` distinct request ids were each received and answered
/// exactly once, and every opened span was closed exactly once.
fn assert_trace_balances(events: Receiver<Event>, requests_received: u64) {
    let mut requests: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    let mut spans: BTreeMap<(String, u64), (u32, u32)> = BTreeMap::new();
    for event in events.try_iter() {
        match event {
            Event::RequestReceived { request, .. } => requests.entry(request).or_default().0 += 1,
            Event::RequestDone { request, .. } => requests.entry(request).or_default().1 += 1,
            Event::SpanOpen { trace, span, .. } => spans.entry((trace, span)).or_default().0 += 1,
            Event::SpanClose { trace, span, .. } => spans.entry((trace, span)).or_default().1 += 1,
            _ => {}
        }
    }
    assert_eq!(requests.len() as u64, requests_received);
    for (id, counts) in &requests {
        assert_eq!(*counts, (1, 1), "request {id}: (received, done)");
    }
    assert!(!spans.is_empty(), "a served request opens spans");
    for ((trace, span), counts) in &spans {
        assert_eq!(*counts, (1, 1), "span {trace}/{span}: (opened, closed)");
    }
}

#[test]
fn concurrent_warm_clients_on_both_transports_all_hit_and_nothing_is_shed() {
    let (tx, rx) = mpsc::channel();
    let aggregator = Aggregator::new();
    let sinks: Vec<Box<dyn Observer>> =
        vec![Box::new(ChannelSink(tx)), Box::new(aggregator.clone())];
    let server = TestServer::boot(Obs::multi(sinks));

    let cold = submit_batch(&server.unix(), &cold_batch()).expect("cold submit");
    assert_eq!((cold.unique, cold.hits, cold.misses), (12, 0, 12));

    let unix_shed = warm_leg(&server, &server.unix(), "unix", &cold.responses);
    let tcp_shed = warm_leg(&server, &server.tcp(), "tcp", &cold.responses);
    assert_eq!((unix_shed, tcp_shed), (0, 0), "shed at default queue bounds");

    let snapshot = server.metrics();
    assert!(snapshot.conns_peak >= CLIENTS as u64, "conns_peak {}", snapshot.conns_peak);
    assert_eq!(snapshot.requests, snapshot.hits + snapshot.misses + snapshot.shed);

    let stats = server.stop();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.requests, stats.cache_hits + stats.cache_misses + stats.shed);
    let warm = (2 * CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!((stats.cache_hits, stats.cache_misses), (warm, 12));
    let report = aggregator.report();
    assert_eq!(
        ServeStats {
            requests: report.requests,
            cache_hits: report.cache_hits,
            cache_misses: report.cache_misses,
            shed: report.requests_shed,
        },
        stats,
        "the event stream's tally matches the server's"
    );
    assert_trace_balances(rx, stats.requests);
}
