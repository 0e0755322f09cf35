//! Observability for the kdesel estimator stack.
//!
//! The paper's claims are about *trajectories* — bandwidth converging
//! under RMSprop (§4.1), Karma reshaping the sample (§5.6), estimation
//! overhead staying flat until compute dominates (Figure 7). This crate
//! is the substrate that makes those trajectories visible:
//!
//! * a process-global [`Registry`] of named [`Counter`]s, [`Gauge`]s,
//!   and log-linear latency [`Histogram`]s (p50/p90/p99/max);
//! * a [`Span`] RAII timer recording wall time into a histogram;
//! * an [`EventSink`] trait for structured events, with a no-op default,
//!   a [`RingSink`] for tests, and a [`JsonlSink`] writing one JSON
//!   object per line;
//! * [`json`], the workspace's one JSON codec: a strict RFC 8259 reader
//!   into a [`Json`] tree and the compact writer that the event encoder,
//!   model snapshots, cost profiles and the bench history all use;
//! * a global enable flag: with telemetry disabled (the default) spans
//!   skip the clock entirely and events are dropped before any field is
//!   materialized, so the estimate hot path is unchanged.
//!
//! Everything is `std`-only and lock-light: counters and histogram
//! buckets are atomics; the registry map itself is only locked on handle
//! resolution (done once per call site, not per operation).

#![deny(unsafe_code)]

mod event;
mod expo;
pub mod json;
mod metrics;
mod sink;
mod trace;

pub use event::{Event, EventBuilder, Value};
pub use expo::{escape_label_value, prometheus_name, prometheus_text};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricKind, MetricLine, Registry};
pub use sink::{EventSink, JsonlSink, NullSink, RingSink, JSONL_SCHEMA_VERSION};
pub use trace::{next_id as next_trace_id, SpanContext};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HAS_SINK: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static Mutex<Option<Arc<dyn EventSink>>> {
    static SINK: OnceLock<Mutex<Option<Arc<dyn EventSink>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Process start reference for event timestamps (monotonic, seconds).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the telemetry epoch (first use in this process).
pub fn now_seconds() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Whether instrumentation is live. When `false` (the default), spans
/// don't read the clock and events are dropped unbuilt.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off globally.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the timestamp origin before the first event
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Resolves (or creates) a named counter. Resolve once per call site
/// and reuse the handle on hot paths.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Resolves (or creates) a named gauge.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Resolves (or creates) a named histogram.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Starts a span recording into the named histogram on drop. No-op
/// (and clock-free) while telemetry is disabled.
pub fn span(name: &str) -> Span {
    if enabled() {
        Span {
            start: Some(Instant::now()),
            histogram: Some(histogram(name)),
        }
    } else {
        Span {
            start: None,
            histogram: None,
        }
    }
}

/// RAII wall-clock timer; records elapsed seconds into its histogram
/// when dropped. Obtain via [`span`] or [`Histogram::span`].
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    histogram: Option<Arc<Histogram>>,
}

impl Span {
    pub(crate) fn active(histogram: Arc<Histogram>) -> Self {
        Self {
            start: Some(Instant::now()),
            histogram: Some(histogram),
        }
    }

    pub(crate) fn noop() -> Self {
        Self {
            start: None,
            histogram: None,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(start), Some(hist)) = (self.start, self.histogram.as_ref()) {
            hist.record(start.elapsed().as_secs_f64());
        }
    }
}

/// Installs (or clears) the event sink. Implies nothing about
/// [`enabled`] — callers typically pair `set_sink(..)` with
/// `set_enabled(true)`.
pub fn set_sink(sink: Option<Arc<dyn EventSink>>) {
    let mut slot = sink_slot().lock().unwrap();
    HAS_SINK.store(sink.is_some(), Ordering::Relaxed);
    *slot = sink;
}

/// Whether an event sink is installed and telemetry is enabled — gate
/// any expensive field computation (norms, vector snapshots) on this.
#[inline]
pub fn tracing() -> bool {
    enabled() && HAS_SINK.load(Ordering::Relaxed)
}

/// Starts a structured event. While [`tracing`] is false the builder is
/// inert: fields are dropped without allocation.
pub fn event(name: &'static str) -> EventBuilder {
    EventBuilder::new(name, tracing())
}

/// Flushes the installed sink, if any. Call before process exit when a
/// buffered sink (e.g. [`JsonlSink`]) is installed globally — a global
/// sink is never dropped, so buffered lines would otherwise be lost.
pub fn flush_sink() {
    let sink = sink_slot().lock().unwrap().clone();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// Sends a pre-built [`Event`] to the installed sink. Dropped while
/// [`tracing`] is false, mirroring [`event`]'s gating. This is the path
/// for instrumentation that constructs events directly (e.g. span
/// records fanned out to both a global sink and a capture file) instead
/// of through the builder.
pub fn emit_event(event: Event) {
    if tracing() {
        dispatch(event);
    }
}

pub(crate) fn dispatch(event: Event) {
    let sink = sink_slot().lock().unwrap().clone();
    if let Some(sink) = sink {
        sink.emit(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global enable flag and sink are process-wide; tests touching
    // them share one lock to avoid cross-talk under the parallel test
    // runner.
    pub(crate) fn global_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = global_guard();
        set_enabled(false);
        let before = registry().histogram("test.inert").summary().count;
        {
            let _span = span("test.inert");
        }
        assert_eq!(registry().histogram("test.inert").summary().count, before);
    }

    #[test]
    fn enabled_span_records() {
        let _g = global_guard();
        set_enabled(true);
        let hist = registry().histogram("test.span_records");
        let before = hist.summary().count;
        {
            let _span = span("test.span_records");
        }
        set_enabled(false);
        assert_eq!(hist.summary().count, before + 1);
    }

    #[test]
    fn events_reach_the_installed_sink() {
        let _g = global_guard();
        let ring = Arc::new(RingSink::with_capacity(8));
        set_sink(Some(ring.clone()));
        set_enabled(true);
        event("unit")
            .f64("x", 1.5)
            .u64("n", 7)
            .str("who", "tester")
            .emit();
        set_enabled(false);
        set_sink(None);
        let events = ring.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "unit");
        assert_eq!(events[0].get_f64("x"), Some(1.5));
        assert_eq!(events[0].get_u64("n"), Some(7));
    }

    #[test]
    fn events_without_sink_are_dropped() {
        let _g = global_guard();
        set_sink(None);
        set_enabled(true);
        assert!(!tracing());
        event("nobody-listens").f64("x", 1.0).emit();
        set_enabled(false);
    }
}
