//! Tracing spans: reconstructing one request's life from the trace.
//!
//! A [`TraceId`] is minted once per request (by the client, or by the
//! server for clients that did not send one) and rides along every
//! stage: protocol frame, queue admission, worker, supervisor, engine.
//! Each stage brackets its work in a [`Span`], which emits a
//! `span_open` event on creation and a `span_close` (with wall time in microseconds)
//! when dropped or explicitly closed. Span ids are process-unique and
//! each open names its parent, so the JSONL trace reconstructs into a
//! tree per trace id: `recv → queued → check → reply` for a served
//! request, with `transform`/`lower`/`explore` engine phases hanging
//! off `check`.
//!
//! Cost discipline: opening a span against a disabled [`Obs`] handle
//! is one branch — no id allocation, no clock read, no event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::Event;
use crate::Obs;

/// SplitMix64: a tiny, high-quality 64-bit mixer. Public so trace-id
/// minting everywhere (client slots, server fallbacks) shares one
/// deterministic scheme.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 64-bit request trace identifier. Zero means "no trace" — requests
/// without one are assigned a fresh id at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace id.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is the absent id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Fixed-width lowercase hex, the wire/trace encoding (64-bit ids
    /// do not survive a JSON number's f64 mantissa).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses [`TraceId::to_hex`] output.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }

    /// A deterministic id derived from a seed and an index (the
    /// client-side scheme: one per submitted slot). Never `NONE`.
    pub fn derive(seed: u64, index: u64) -> TraceId {
        let mixed = splitmix64(seed ^ splitmix64(index));
        TraceId(if mixed == 0 { 1 } else { mixed })
    }

    /// A process-fresh id (the server-side fallback for requests that
    /// arrive without one). Never `NONE`.
    pub fn fresh() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TraceId::derive(u64::from(std::process::id()) << 32, n)
    }
}

/// Process-unique span ids start at 1; 0 means "no parent" in
/// `span_open` events.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Reserves a span id without opening a span. Used when the open and
/// close happen on different threads (e.g. the serve queue: admission
/// opens `queued`, a worker closes it) and a guard cannot travel.
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// An open span. Emits `span_open` on creation and `span_close` (with
/// elapsed wall time) when dropped or [`Span::close`]d. Inert — id 0,
/// no events, no clock reads — when the handle is disabled.
pub struct Span {
    obs: Obs,
    trace: TraceId,
    id: u64,
    name: &'static str,
    started: Option<Instant>,
}

impl Span {
    /// Opens a span (`parent` 0 = root). Emits nothing and reads no
    /// clock when `obs` is disabled.
    pub fn open(obs: &Obs, trace: TraceId, parent: u64, name: &'static str) -> Span {
        Span::open_impl(obs, trace, parent, name, None)
    }

    /// Opens a root span that names the request it covers — the anchor
    /// tying a trace id to a request id in the trace.
    pub fn open_for_request(
        obs: &Obs,
        trace: TraceId,
        name: &'static str,
        request: &str,
    ) -> Span {
        Span::open_impl(obs, trace, 0, name, Some(request.to_string()))
    }

    fn open_impl(
        obs: &Obs,
        trace: TraceId,
        parent: u64,
        name: &'static str,
        request: Option<String>,
    ) -> Span {
        if !obs.is_enabled() {
            return Span { obs: Obs::off(), trace, id: 0, name, started: None };
        }
        let id = next_span_id();
        obs.emit(|_| Event::SpanOpen {
            trace: trace.to_hex(),
            span: id,
            parent,
            name: name.to_string(),
            request,
        });
        Span { obs: obs.clone(), trace, id, name, started: Some(Instant::now()) }
    }

    /// This span's id (0 when inert), for parenting children.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Closes the span now (dropping does the same).
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(started) = self.started.take() {
            let wall_us = started.elapsed().as_micros() as u64;
            self.obs.emit(|_| Event::SpanClose {
                trace: self.trace.to_hex(),
                span: self.id,
                name: self.name.to_string(),
                wall_us,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aggregator;

    #[test]
    fn splitmix64_matches_known_vectors() {
        // Trace-id derivation and client jitter replay only while these
        // hold; kiss-fault's private copy pins the same values.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn trace_ids_round_trip_hex_and_derive_deterministically() {
        let t = TraceId(0x0123_4567_89ab_cdef);
        assert_eq!(t.to_hex(), "0123456789abcdef");
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("123"), None, "hex must be fixed-width");
        assert_eq!(TraceId::derive(7, 0), TraceId::derive(7, 0));
        assert_ne!(TraceId::derive(7, 0), TraceId::derive(7, 1));
        assert!(!TraceId::derive(0, 0).is_none());
        assert!(TraceId::NONE.is_none());
        assert_ne!(TraceId::fresh(), TraceId::fresh());
    }

    #[test]
    fn spans_emit_balanced_open_close_pairs() {
        let agg = Aggregator::new();
        let obs = Obs::new(agg.clone());
        let trace = TraceId::derive(1, 1);
        let root = Span::open_for_request(&obs, trace, "recv", "q0");
        assert_ne!(root.id(), 0);
        let child = Span::open(&obs, trace, root.id(), "check");
        child.close();
        drop(root);
        let counts = agg.event_counts();
        assert_eq!(counts["span_open"], 2);
        assert_eq!(counts["span_close"], 2);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let span = Span::open(&Obs::off(), TraceId::derive(1, 1), 0, "recv");
        assert_eq!(span.id(), 0);
        span.close(); // must not emit or panic
    }

    #[test]
    fn span_close_carries_the_same_trace_and_id() {
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        let obs = Obs::new(crate::ChannelSink(tx));
        let trace = TraceId::derive(2, 2);
        let span = Span::open(&obs, trace, 0, "explore");
        let id = span.id();
        span.close();
        drop(obs);
        let events: Vec<Event> = rx.iter().collect();
        assert_eq!(events.len(), 2);
        let Event::SpanOpen { trace: t_open, span: s_open, parent, name, request } = &events[0]
        else {
            panic!("first event must be span_open")
        };
        assert_eq!(t_open, &trace.to_hex());
        assert_eq!(*s_open, id);
        assert_eq!(*parent, 0);
        assert_eq!(name, "explore");
        assert_eq!(request, &None);
        let Event::SpanClose { trace: t_close, span: s_close, name, .. } = &events[1] else {
            panic!("second event must be span_close")
        };
        assert_eq!(t_close, &trace.to_hex());
        assert_eq!(*s_close, id);
        assert_eq!(name, "explore");
    }
}
