//! Event consumers: JSONL trace writer, in-memory aggregator, and the
//! throttled human heartbeat.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::Event;
use crate::metrics::Histogram;
use crate::report::RunReport;

/// An event consumer. Implementations must tolerate any event order —
/// sinks are decoupled from emitters, and a crash can cut a stream
/// short.
pub trait Observer: Send {
    /// Consumes one event.
    fn on_event(&mut self, event: &Event);
}

/// Forwards every event into an [`std::sync::mpsc`] channel. This is
/// the thread-safe funnel for parallel runs: each worker thread gets an
/// [`crate::Obs`] wrapping its own `ChannelSink` clone of the sender,
/// and a single draining thread receives the merged stream and replays
/// it into the real (single-threaded) sink via [`crate::Obs::forward`].
///
/// Generic over the channel's message type so callers can multiplex
/// events with their own messages on one channel (no `select` in std's
/// mpsc); `ChannelSink<Event>` is the plain case. A closed channel
/// drops events silently — the run outlives its observers, never the
/// other way around.
pub struct ChannelSink<T: From<Event> + Send = Event>(pub std::sync::mpsc::Sender<T>);

impl<T: From<Event> + Send> Observer for ChannelSink<T> {
    fn on_event(&mut self, event: &Event) {
        let _ = self.0.send(T::from(event.clone()));
    }
}

/// Broadcasts each event to several observers in order.
pub struct Fanout(pub Vec<Box<dyn Observer>>);

impl Observer for Fanout {
    fn on_event(&mut self, event: &Event) {
        for obs in &mut self.0 {
            obs.on_event(event);
        }
    }
}

/// Writes each event as one JSON line. Buffered; flushed on the events
/// that matter for crash forensics (check finished, run summary) so a
/// killed run's trace still ends on a record boundary.
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(JsonlSink { out: BufWriter::new(File::create(path)?) })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }
}

impl<W: Write + Send> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &Event) {
        // A full disk must not kill the run the trace is describing.
        let _ = writeln!(self.out, "{}", event.to_json());
        if matches!(event, Event::CheckFinished { .. } | Event::RunSummary { .. }) {
            let _ = self.out.flush();
        }
    }
}

#[derive(Default)]
struct AggState {
    /// Every finished check, folded in as it arrives.
    all: RunReport,
    /// The same, leaving out checks that ended in cancellation.
    resumable: RunReport,
    event_counts: BTreeMap<&'static str, u64>,
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    request_latency: Histogram,
    requests_shed: u64,
    faults_injected: u64,
    client_retries: u64,
}

impl AggState {
    fn serving_into(&self, report: &mut RunReport) {
        report.requests = self.requests;
        report.cache_hits = self.cache_hits;
        report.cache_misses = self.cache_misses;
        report.request_latency = self.request_latency.clone();
        report.requests_shed = self.requests_shed;
        report.faults_injected = self.faults_injected;
        report.client_retries = self.client_retries;
    }
}

/// In-memory aggregation. Clonable handle: register one clone as a
/// sink, keep another to extract the [`RunReport`] afterwards.
#[derive(Clone, Default)]
pub struct Aggregator {
    state: Arc<Mutex<AggState>>,
}

impl Aggregator {
    /// A fresh, empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// The report over every finished check seen so far, plus the
    /// serve-mode request/cache counters.
    pub fn report(&self) -> RunReport {
        let state = self.state.lock().expect("aggregator lock");
        let mut report = state.all.clone();
        state.serving_into(&mut report);
        report
    }

    /// Like [`Aggregator::report`], excluding checks that ended in
    /// cancellation. A resumed run re-checks those fields, so storing
    /// them in a journal's report record would double-count them.
    pub fn resumable_report(&self) -> RunReport {
        self.state.lock().expect("aggregator lock").resumable.clone()
    }

    /// How many of each event kind were observed.
    pub fn event_counts(&self) -> BTreeMap<&'static str, u64> {
        self.state.lock().expect("aggregator lock").event_counts.clone()
    }
}

impl Observer for Aggregator {
    fn on_event(&mut self, event: &Event) {
        let mut state = self.state.lock().expect("aggregator lock");
        *state.event_counts.entry(event.kind()).or_default() += 1;
        match event {
            Event::CheckFinished { metrics } => {
                state.all.observe(metrics);
                if metrics.bound_reason.as_deref() != Some("cancelled") {
                    state.resumable.observe(metrics);
                }
            }
            Event::RequestReceived { .. } => state.requests += 1,
            Event::CacheHit { .. } => state.cache_hits += 1,
            Event::CacheMiss { .. } => state.cache_misses += 1,
            Event::RequestDone { wall_ms, .. } => state.request_latency.record(*wall_ms),
            Event::RequestShed { .. } => state.requests_shed += 1,
            Event::FaultInjected { .. } => state.faults_injected += 1,
            Event::ClientRetry { .. } => state.client_retries += 1,
            _ => {}
        }
    }
}

/// Throttled single-line progress renderer for humans watching a long
/// corpus run. Renders at most once per `interval` (plus once at the
/// final summary), so hot engine loops can emit ticks freely.
pub struct Heartbeat<W: Write + Send> {
    out: W,
    interval: Duration,
    started: Instant,
    last_render: Option<Instant>,
    finished: u64,
    outcomes: BTreeMap<String, u64>,
    /// Steps/states of finished checks, so live tick deltas stack on a
    /// stable base.
    base_steps: u64,
    base_states: u64,
    live_steps: u64,
    live_states: u64,
    current: String,
}

impl Heartbeat<io::Stderr> {
    /// A heartbeat on stderr, rendering at most once a second.
    pub fn stderr() -> Self {
        Heartbeat::new(io::stderr(), Duration::from_secs(1))
    }
}

impl<W: Write + Send> Heartbeat<W> {
    /// A heartbeat on any writer with an explicit interval
    /// (`Duration::ZERO` renders every event — useful in tests).
    pub fn new(out: W, interval: Duration) -> Self {
        Heartbeat {
            out,
            interval,
            started: Instant::now(),
            last_render: None,
            finished: 0,
            outcomes: BTreeMap::new(),
            base_steps: 0,
            base_states: 0,
            live_steps: 0,
            live_states: 0,
            current: String::new(),
        }
    }

    fn due(&self) -> bool {
        match self.last_render {
            None => true,
            Some(at) => at.elapsed() >= self.interval,
        }
    }

    fn render(&mut self, done: bool) {
        self.last_render = Some(Instant::now());
        let outcomes = self
            .outcomes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let steps = self.base_steps + self.live_steps;
        let states = self.base_states + self.live_states;
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { steps as f64 / elapsed } else { 0.0 };
        let tail = if done {
            "done".to_string()
        } else if self.current.is_empty() {
            "starting".to_string()
        } else {
            format!("now: {}", self.current)
        };
        let _ = writeln!(
            self.out,
            "[kiss] {} checks ({outcomes}) · {steps} steps · {states} states · {rate:.0} steps/s · {tail}",
            self.finished,
        );
    }
}

impl<W: Write + Send> Observer for Heartbeat<W> {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::CheckStarted { check } => {
                self.current = check.clone();
                self.live_steps = 0;
                self.live_states = 0;
            }
            Event::EngineTick { steps, states, .. } => {
                self.live_steps = *steps;
                self.live_states = *states;
                if self.due() {
                    self.render(false);
                }
            }
            Event::RetryEscalated { .. }
            | Event::BudgetViolated { .. }
            | Event::RequestReceived { .. }
            | Event::CacheHit { .. }
            | Event::CacheMiss { .. }
            | Event::RequestDone { .. }
            | Event::RequestShed { .. }
            | Event::FaultInjected { .. }
            | Event::ClientRetry { .. }
            | Event::SpanOpen { .. }
            | Event::SpanClose { .. } => {}
            Event::CheckFinished { metrics } => {
                self.finished += 1;
                *self.outcomes.entry(metrics.verdict.clone()).or_default() += 1;
                self.base_steps += metrics.steps;
                self.base_states += metrics.states;
                self.live_steps = 0;
                self.live_states = 0;
                if self.due() {
                    self.render(false);
                }
            }
            Event::RunSummary { .. } => self.render(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckMetrics;

    /// A clonable in-memory writer so tests can read back what a sink
    /// wrote after handing it ownership.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn finished(check: &str, verdict: &str) -> Event {
        Event::CheckFinished {
            metrics: CheckMetrics {
                check: check.into(),
                engine: "explicit".into(),
                verdict: verdict.into(),
                steps: 10,
                bound_reason: (verdict == "inconclusive").then(|| "cancelled".to_string()),
                ..CheckMetrics::default()
            },
        }
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.on_event(&Event::CheckStarted { check: "a/0".into() });
        sink.on_event(&finished("a/0", "pass"));
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(crate::json::Json::parse(line).is_some(), "{line}");
        }
    }

    #[test]
    fn aggregator_counts_events_and_builds_reports() {
        let agg = Aggregator::new();
        let mut sink: Box<dyn Observer> = Box::new(agg.clone());
        sink.on_event(&Event::CheckStarted { check: "a/0".into() });
        sink.on_event(&finished("a/0", "pass"));
        sink.on_event(&finished("a/1", "race"));
        sink.on_event(&finished("a/2", "inconclusive")); // cancelled
        let counts = agg.event_counts();
        assert_eq!(counts["check_started"], 1);
        assert_eq!(counts["check_finished"], 3);
        assert_eq!(agg.report().checks, 3);
        // The cancelled check drops out of the resumable view.
        let resumable = agg.resumable_report();
        assert_eq!(resumable.checks, 2);
        assert!(!resumable.outcomes.contains_key("inconclusive"));
    }

    #[test]
    fn aggregator_folds_serve_events_into_the_report() {
        let agg = Aggregator::new();
        let mut sink: Box<dyn Observer> = Box::new(agg.clone());
        for (id, hit, ms) in [("q0", false, 9u64), ("q1", true, 1), ("q2", true, 2)] {
            sink.on_event(&Event::RequestReceived { request: id.into(), queue_depth: 0 });
            if hit {
                sink.on_event(&Event::CacheHit { request: id.into() });
            } else {
                sink.on_event(&Event::CacheMiss { request: id.into() });
            }
            sink.on_event(&Event::RequestDone {
                request: id.into(),
                verdict: "pass".into(),
                wall_ms: ms,
                queue_depth: 0,
            });
        }
        let report = agg.report();
        assert_eq!(report.requests, 3);
        assert_eq!(report.cache_hits, 2);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.requests, report.cache_hits + report.cache_misses);
        assert_eq!(report.request_latency, Histogram::from_samples([9, 1, 2]));
        assert_eq!(report.request_latency.count(), 3);
        assert_eq!(agg.event_counts()["request_done"], 3);
    }

    #[test]
    fn aggregator_folds_robustness_events_into_the_report() {
        let agg = Aggregator::new();
        let mut sink: Box<dyn Observer> = Box::new(agg.clone());
        sink.on_event(&Event::RequestShed { request: "q0".into(), queue_depth: 8 });
        sink.on_event(&Event::RequestShed { request: "q1".into(), queue_depth: 8 });
        sink.on_event(&Event::FaultInjected {
            point: "serve.worker".into(),
            action: "panic".into(),
        });
        sink.on_event(&Event::ClientRetry { attempt: 2, wait_ms: 10, reason: "connect".into() });
        let report = agg.report();
        assert_eq!(report.requests_shed, 2);
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.client_retries, 1);
        assert_eq!(agg.event_counts()["request_shed"], 2);
        assert_eq!(agg.event_counts()["fault_injected"], 1);
        assert_eq!(agg.event_counts()["client_retry"], 1);
    }

    #[test]
    fn heartbeat_throttles_and_always_renders_the_summary() {
        let buf = SharedBuf::default();
        // Infinite interval: only the RunSummary may render.
        let mut hb = Heartbeat::new(buf.clone(), Duration::from_secs(3600));
        hb.on_event(&Event::CheckStarted { check: "a/0".into() });
        hb.on_event(&finished("a/0", "pass"));
        hb.on_event(&finished("a/1", "pass"));
        let first_render = buf.contents();
        // The first event rendered once (no prior render), then the
        // throttle held.
        assert_eq!(first_render.lines().count(), 1);
        hb.on_event(&Event::RunSummary { report: RunReport::default() });
        let text = buf.contents();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("pass=2"), "{text}");
        assert!(text.ends_with("done\n"), "{text}");
    }

    #[test]
    fn heartbeat_with_zero_interval_tracks_live_ticks() {
        let buf = SharedBuf::default();
        let mut hb = Heartbeat::new(buf.clone(), Duration::ZERO);
        hb.on_event(&Event::CheckStarted { check: "a/0".into() });
        hb.on_event(&Event::EngineTick {
            check: "a/0".into(),
            engine: "explicit",
            steps: 500,
            states: 9,
        });
        let text = buf.contents();
        assert!(text.contains("500 steps"), "{text}");
        assert!(text.contains("now: a/0"), "{text}");
    }

    #[test]
    fn channel_sink_funnels_worker_events_into_one_sink() {
        use crate::Obs;
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        // Two "workers", each with its own handle on the same channel.
        let worker_a = Obs::new(ChannelSink(tx.clone())).with_label("drv/0");
        let worker_b = Obs::new(ChannelSink(tx.clone())).with_label("drv/1");
        std::thread::scope(|s| {
            s.spawn(move || worker_a.emit(|c| Event::CheckStarted { check: c.to_string() }));
            s.spawn(move || worker_b.emit(|c| Event::CheckStarted { check: c.to_string() }));
        });
        drop(tx);
        // The draining side forwards into the real sink.
        let agg = Aggregator::new();
        let main_obs = Obs::new(agg.clone());
        let mut checks: Vec<String> = Vec::new();
        for event in rx {
            if let Event::CheckStarted { check } = &event {
                checks.push(check.clone());
            }
            main_obs.forward(&event);
        }
        checks.sort();
        assert_eq!(checks, vec!["drv/0".to_string(), "drv/1".to_string()]);
        assert_eq!(agg.event_counts()["check_started"], 2);
    }

    #[test]
    fn closed_channel_drops_events_without_panicking() {
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        drop(rx);
        let mut sink = ChannelSink(tx);
        sink.on_event(&Event::CheckStarted { check: "a/0".into() });
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Aggregator::new();
        let b = Aggregator::new();
        let mut fan = Fanout(vec![Box::new(a.clone()), Box::new(b.clone())]);
        fan.on_event(&finished("x/0", "pass"));
        assert_eq!(a.report().checks, 1);
        assert_eq!(b.report().checks, 1);
    }
}
