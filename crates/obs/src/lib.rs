//! # kiss-obs
//!
//! Structured observability for the KISS checker: events, per-check
//! metrics, and sinks that turn a corpus run into a JSONL trace, an
//! aggregated [`RunReport`], or a throttled progress heartbeat.
//!
//! The paper's evaluation (§6) is an accounting exercise — 481
//! per-field checks under a resource bound, with per-driver outcome
//! counts. This crate is the measurement substrate for that
//! accounting: engines, the supervisor, and the corpus driver all
//! emit [`Event`]s through an [`Obs`] handle, and sinks aggregate
//! them without the emitters knowing who is listening.
//!
//! ## Zero cost when disabled
//!
//! [`Obs::emit`] takes a *closure* that builds the event. A disabled
//! handle (the default) never calls it, so hot loops pay one `Option`
//! check — no allocation, no formatting, no locking.

pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sinks;
pub mod span;

pub use event::{CheckMetrics, Event};
pub use metrics::{AtomicHistogram, Gauge, Histogram};
pub use report::{EngineTotals, RunReport};
pub use sinks::{Aggregator, ChannelSink, Fanout, Heartbeat, JsonlSink, Observer};
pub use span::{Span, TraceId};

use std::sync::{Arc, Mutex};

/// A cheap, clonable handle through which instrumented code emits
/// events. Carries a label (the current check's name) so emitters
/// deep in an engine do not need to thread identity around.
#[derive(Clone)]
pub struct Obs {
    sink: Option<Arc<Mutex<dyn Observer>>>,
    label: Arc<str>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("label", &self.label)
            .finish()
    }
}

impl Obs {
    /// The disabled handle: every [`Obs::emit`] is a no-op.
    pub fn off() -> Self {
        Obs { sink: None, label: Arc::from("") }
    }

    /// A handle feeding one observer.
    pub fn new(observer: impl Observer + 'static) -> Self {
        Obs { sink: Some(Arc::new(Mutex::new(observer))), label: Arc::from("") }
    }

    /// A handle fanning out to several observers; an empty list is the
    /// disabled handle.
    pub fn multi(observers: Vec<Box<dyn Observer>>) -> Self {
        if observers.is_empty() {
            Obs::off()
        } else {
            Obs::new(Fanout(observers))
        }
    }

    /// This handle relabeled (same sinks). Use one label per check,
    /// e.g. `diskperf/3`.
    pub fn with_label(&self, label: impl AsRef<str>) -> Self {
        Obs { sink: self.sink.clone(), label: Arc::from(label.as_ref()) }
    }

    /// The current label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether any sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `make` (which receives the label).
    /// When disabled, `make` is never called.
    #[inline]
    pub fn emit(&self, make: impl FnOnce(&str) -> Event) {
        if let Some(sink) = &self.sink {
            let event = make(&self.label);
            sink.lock().expect("observer lock").on_event(&event);
        }
    }

    /// Forwards an already-built event to the sink, ignoring this
    /// handle's label (events carry their own check identity). This is
    /// the re-emission half of a channel funnel: worker threads emit
    /// into a [`sinks::ChannelSink`], and the draining thread forwards
    /// each received event into the real sink through this method.
    #[inline]
    pub fn forward(&self, event: &Event) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("observer lock").on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        obs.emit(|_| unreachable!("disabled handle must not build events"));
    }

    #[test]
    fn labels_flow_into_emitted_events() {
        let agg = Aggregator::new();
        let obs = Obs::new(agg.clone()).with_label("diskperf/3");
        assert_eq!(obs.label(), "diskperf/3");
        obs.emit(|check| Event::CheckStarted { check: check.to_string() });
        // Relabeled clones share the sink.
        obs.with_label("diskperf/4")
            .emit(|check| Event::CheckStarted { check: check.to_string() });
        assert_eq!(agg.event_counts()["check_started"], 2);
    }

    #[test]
    fn multi_with_no_observers_is_disabled() {
        assert!(!Obs::multi(Vec::new()).is_enabled());
        assert!(Obs::multi(vec![Box::new(Aggregator::new())]).is_enabled());
    }
}
