//! A daemon answers a race sweep the same whether its front end is cold
//! or warm.
//!
//! The daemon keeps one set of validated function bodies for all its
//! workers and stubs the remembered bodies `main` does not reach. The
//! transform stubs those anyway, so a second pass over both served
//! corpora, with every cache key new, must answer exactly as the first:
//! verdict, detail, steps and states.

#![cfg(unix)]

use std::time::Duration;

use kiss_seq::{Budget, CancelToken};
use kiss_serve::{fetch_metrics, submit_batch, Endpoint, Request, ServeConfig, Server};

#[test]
fn a_second_distinct_keyed_pass_over_the_corpora_answers_as_the_first() {
    let socket = std::env::temp_dir().join(format!(
        "kiss-serve-warm-front-end-{}.sock",
        std::process::id()
    ));
    let cfg = ServeConfig {
        socket: Some(socket.clone()),
        jobs: 2,
        // Small enough for a debug build; the claim holds at any budget.
        budget: Budget::steps_states(20_000, 2_000),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).expect("bind unix socket");
    let shutdown = CancelToken::new();
    let token = shutdown.clone();
    let handle = std::thread::spawn(move || server.run(&token).expect("serve"));
    let endpoint = Endpoint::Unix(socket);

    let mut entries = kiss_drivers::corpus_batch(false);
    entries.extend(kiss_drivers::corpus_batch(true));
    let pass = |tag: &str| -> Vec<Request> {
        entries
            .iter()
            .map(|e| Request::race(&e.label, format!("{}// {tag}\n", e.source), &e.race_spec))
            .collect()
    };
    let first = submit_batch(&endpoint, &pass("first")).expect("first pass");
    let after_first = fetch_metrics(&endpoint, Duration::from_secs(30)).expect("metrics");
    let second = submit_batch(&endpoint, &pass("second")).expect("second pass");
    let after_second = fetch_metrics(&endpoint, Duration::from_secs(30)).expect("metrics");
    shutdown.cancel();
    handle.join().expect("server thread");

    assert_eq!(second.hits, 0, "every key of the second pass is new");
    for ((a, b), entry) in first.responses.iter().zip(&second.responses).zip(&entries) {
        let answer =
            |r: &kiss_serve::Response| (r.verdict.clone(), r.detail.clone(), r.steps, r.states);
        assert_eq!(answer(a), answer(b), "{}", entry.label);
    }
    // The first pass already reuses bodies across a driver's fields; the
    // second lexes, parses and lowers only what `main` reaches.
    assert!(after_first.bodies_stubbed > 0, "{after_first:?}");
    let lowered = after_second.bodies_lowered - after_first.bodies_lowered;
    let stubbed = after_second.bodies_stubbed - after_first.bodies_stubbed;
    assert!(
        stubbed > 5 * lowered,
        "lowered {lowered}, stubbed {stubbed}"
    );
    assert_eq!(after_second.body_set_clears, 0);
}
