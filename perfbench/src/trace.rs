//! The traced pass: client-side spans around every public call the
//! benchmark makes into a layer, the service's own `serve.*` span events
//! captured in memory, and the join of the two by trace ID.

use kdesel_telemetry::{Event, EventSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed client-side span. Times are seconds since the pass epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified call name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, seconds since the pass epoch.
    pub start: f64,
    /// End, seconds since the pass epoch.
    pub end: f64,
    /// Unique span ID (never 0).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Service trace ID from `PendingEstimate::trace`, 0 when the call
    /// has none.
    pub trace: u64,
}

impl SpanRec {
    /// Wall seconds inside the span.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    start: Option<Instant>,
}

impl Open {
    /// The ID children should name as their parent (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span buffer. Disabled buffers never read the clock, so the
/// untraced pass pays nothing for the instrumentation points.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl Spans {
    /// A buffer timing against `epoch`; inert unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Starts a span.
    pub fn open(&self) -> Open {
        if self.enabled {
            Open {
                id: next_span_id(),
                start: Some(Instant::now()),
            }
        } else {
            Open { id: 0, start: None }
        }
    }

    /// Ends `open` as a span called `name` under `parent`.
    pub fn close(&mut self, open: Open, name: &'static str, parent: u64, trace: u64) {
        if let Some(start) = open.start {
            let end = Instant::now();
            self.spans.push(SpanRec {
                name,
                start: start.duration_since(self.epoch).as_secs_f64(),
                end: end.duration_since(self.epoch).as_secs_f64(),
                id: open.id,
                parent,
                trace,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, 0);
        out
    }

    /// The recorded spans.
    pub fn into_vec(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// The fields of one `serve.*` span event the join needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Captured {
    /// Event name (`serve.request`, `serve.batch`, `serve.launch`,
    /// `serve.feedback`).
    pub name: &'static str,
    /// Trace ID of the request the event belongs to.
    pub trace: u64,
    /// `serve.request.wait_s`: submission until the batch's reply stage.
    pub wait_s: f64,
    /// `serve.launch.launch_s`: the fused `estimate_batch` wall time.
    pub launch_s: f64,
    /// `serve.batch.seq`: the worker's batch number.
    pub seq: u64,
    /// `serve.batch.size`: requests fused into the batch.
    pub size: u64,
}

/// In-memory [`EventSink`] keeping the serving span events.
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Captured>>,
}

impl CaptureSink {
    /// Takes every captured event, in emission order.
    pub fn take(&self) -> Vec<Captured> {
        std::mem::take(&mut *self.events.lock().expect("capture sink poisoned"))
    }
}

impl EventSink for CaptureSink {
    fn emit(&self, event: &Event) {
        let name = match event.name {
            "serve.request" => "serve.request",
            "serve.batch" => "serve.batch",
            "serve.launch" => "serve.launch",
            "serve.feedback" => "serve.feedback",
            _ => return,
        };
        let captured = Captured {
            name,
            trace: event.get_u64("trace").unwrap_or(0),
            wait_s: event.get_f64("wait_s").unwrap_or(f64::NAN),
            launch_s: event.get_f64("launch_s").unwrap_or(f64::NAN),
            seq: event.get_u64("seq").unwrap_or(0),
            size: event.get_u64("size").unwrap_or(0),
        };
        self.events
            .lock()
            .expect("capture sink poisoned")
            .push(captured);
    }
}

/// What the service reported about one request, assembled by trace ID.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerSide {
    /// `serve.request.wait_s`, when the root span arrived.
    pub wait_s: Option<f64>,
    /// `serve.launch.launch_s`, when the launch span arrived.
    pub launch_s: Option<f64>,
    /// `(seq, size)` of the batch, when the batch span arrived.
    pub batch: Option<(u64, u64)>,
    /// Whether a `serve.feedback` span joined this trace.
    pub feedback: bool,
}

/// Groups captured events by trace ID.
pub fn join_events(events: &[Captured]) -> BTreeMap<u64, ServerSide> {
    let mut joined: BTreeMap<u64, ServerSide> = BTreeMap::new();
    for event in events {
        let side = joined.entry(event.trace).or_default();
        match event.name {
            "serve.request" => side.wait_s = Some(event.wait_s),
            "serve.launch" => side.launch_s = Some(event.launch_s),
            "serve.batch" => side.batch = Some((event.seq, event.size)),
            "serve.feedback" => side.feedback = true,
            _ => {}
        }
    }
    joined
}

/// One client request of the timed window, as the load thread saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// Trace ID minted by `ServeHandle::submit`.
    pub trace: u64,
    /// Seconds inside `ServeHandle::submit`.
    pub submit_s: f64,
    /// Seconds from `submit` until `wait` returned.
    pub latency_s: f64,
    /// Whether the client sent traced feedback for this request.
    pub expects_feedback: bool,
}

/// A request whose span tree is complete, split into its serving layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Time inside `submit`.
    pub submit_s: f64,
    /// Channel queue plus gather window: `wait_s − launch_s`.
    pub queue_s: f64,
    /// The fused launch the request rode in.
    pub launch_s: f64,
    /// Reply hand-off and wake: client latency − `wait_s`.
    pub reply_s: f64,
    /// Client-observed latency.
    pub latency_s: f64,
    /// `(seq, size)` of the request's batch.
    pub batch: (u64, u64),
}

/// Joins client requests with the server-side spans. Returns the split of
/// every complete request and the number of incomplete ones (a missing
/// `serve.request`, `serve.batch` or `serve.launch` event, or a missing
/// `serve.feedback` where feedback was sent).
pub fn split_requests(
    requests: &[ClientRequest],
    joined: &BTreeMap<u64, ServerSide>,
) -> (Vec<Split>, usize) {
    let mut splits = Vec::with_capacity(requests.len());
    let mut incomplete = 0;
    for req in requests {
        let Some(side) = joined.get(&req.trace) else {
            incomplete += 1;
            continue;
        };
        match (side.wait_s, side.launch_s, side.batch) {
            (Some(wait_s), Some(launch_s), Some(batch))
                if side.feedback || !req.expects_feedback =>
            {
                splits.push(Split {
                    submit_s: req.submit_s,
                    queue_s: wait_s - launch_s,
                    launch_s,
                    reply_s: req.latency_s - wait_s,
                    latency_s: req.latency_s,
                    batch,
                });
            }
            _ => incomplete += 1,
        }
    }
    (splits, incomplete)
}

/// Writes the pass's spans and captured events as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[SpanRec], events: &[Captured]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"span":"{}","id":{},"parent":{},"trace":{},"start":{:?},"end":{:?}}}"#,
            s.name, s.id, s.parent, s.trace, s.start, s.end
        )?;
    }
    for e in events {
        writeln!(
            out,
            r#"{{"event":"{}","trace":{},"wait_s":{},"launch_s":{},"seq":{},"size":{}}}"#,
            e.name,
            e.trace,
            json_number(e.wait_s),
            json_number(e.launch_s),
            e.seq,
            e.size
        )?;
    }
    out.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn captured(name: &'static str, trace: u64) -> Captured {
        Captured {
            name,
            trace,
            wait_s: f64::NAN,
            launch_s: f64::NAN,
            seq: 0,
            size: 0,
        }
    }

    fn request(trace: u64, expects_feedback: bool) -> ClientRequest {
        ClientRequest {
            trace,
            submit_s: 1e-6,
            latency_s: 5e-4,
            expects_feedback,
        }
    }

    #[test]
    fn join_splits_a_complete_span_tree() {
        let events = vec![
            Captured {
                wait_s: 4e-4,
                ..captured("serve.request", 7)
            },
            Captured {
                seq: 3,
                size: 2,
                ..captured("serve.batch", 7)
            },
            Captured {
                launch_s: 1e-4,
                ..captured("serve.launch", 7)
            },
            captured("serve.feedback", 7),
        ];
        let joined = join_events(&events);
        let (splits, incomplete) = split_requests(&[request(7, true)], &joined);
        assert_eq!(incomplete, 0);
        assert_eq!(splits.len(), 1);
        let s = splits[0];
        assert_eq!(s.batch, (3, 2));
        assert!((s.queue_s - 3e-4).abs() < 1e-15);
        assert!((s.reply_s - 1e-4).abs() < 1e-15);
        assert_eq!(s.launch_s, 1e-4);
    }

    #[test]
    fn join_counts_missing_parts_as_incomplete() {
        let events = vec![
            // Trace 1: no launch span.
            captured("serve.request", 1),
            captured("serve.batch", 1),
            // Trace 2: complete, but feedback was expected and never came.
            captured("serve.request", 2),
            captured("serve.batch", 2),
            captured("serve.launch", 2),
            // Trace 3: complete without feedback, none expected.
            captured("serve.request", 3),
            captured("serve.batch", 3),
            captured("serve.launch", 3),
        ];
        let joined = join_events(&events);
        let requests = [
            request(1, false),
            request(2, true),
            request(3, false),
            request(4, false), // never reached the service's sink at all
        ];
        let (splits, incomplete) = split_requests(&requests, &joined);
        assert_eq!(incomplete, 3);
        assert_eq!(splits.len(), 1);
    }

    #[test]
    fn sink_keeps_only_serving_events() {
        let sink = CaptureSink::default();
        sink.emit(
            &Event::new("serve.request")
                .u64("trace", 9)
                .f64("wait_s", 0.5),
        );
        sink.emit(&Event::new("bandwidth.step").u64("trace", 9));
        let taken = sink.take();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].trace, 9);
        assert_eq!(taken[0].wait_s, 0.5);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false, Instant::now());
        let open = spans.open();
        assert_eq!(open.id(), 0);
        spans.close(open, "serve.submit", 0, 1);
        assert_eq!(spans.span("storage.count_in", 0, || 5), 5);
        assert!(spans.into_vec().is_empty());
    }

    #[test]
    fn enabled_spans_nest_by_parent_id() {
        let mut spans = Spans::new(true, Instant::now());
        let outer = spans.open();
        let parent = outer.id();
        spans.span("storage.count_in", parent, || ());
        spans.close(outer, "engine.query", 0, 11);
        let recs = spans.into_vec();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].parent, recs[1].id);
        assert_eq!(recs[1].trace, 11);
        assert!(recs[1].start <= recs[0].start && recs[0].end <= recs[1].end);
    }
}
