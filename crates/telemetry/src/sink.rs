//! Event sinks: where structured events go.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;

/// Receives every emitted [`Event`]. Implementations must be cheap and
/// non-blocking where possible — `emit` runs on the instrumented thread.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &Event);

    /// Flushes buffered output (default: nothing to do).
    fn flush(&self) {}
}

/// Bounded in-memory buffer keeping the most recent events — the test
/// sink. Overflow drops the oldest event.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buffer: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buffer: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Takes all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.buffer.lock().unwrap().drain(..).collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.buffer.lock().unwrap().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingSink {
    fn emit(&self, event: &Event) {
        let mut buffer = self.buffer.lock().unwrap();
        if buffer.len() == self.capacity {
            buffer.pop_front();
        }
        buffer.push_back(event.clone());
    }
}

/// Schema version stamped into every [`JsonlSink`] line as a leading
/// `"v"` field. Readers (the serve capture/replay loader) reject lines
/// with a different version instead of silently mis-parsing, and treat
/// an unparsable final line as a truncated file.
pub const JSONL_SCHEMA_VERSION: u32 = 1;

/// Writes one JSON object per line to a buffered file or another
/// writer. Every line carries a leading `"v"` schema-version field
/// ([`JSONL_SCHEMA_VERSION`]); lines are flushed on drop and on
/// [`EventSink::flush`].
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes events there.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            writer: Mutex::new(Box::new(std::io::BufWriter::new(file))),
        })
    }

    /// Wraps an arbitrary writer (used by tests).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        // Inject the schema version as the first field: `to_json` always
        // yields `{"event":...}`, so splicing after the brace is safe.
        let json = event.to_json();
        let mut line = String::with_capacity(json.len() + 8);
        line.push_str("{\"v\":");
        line.push_str(&JSONL_SCHEMA_VERSION.to_string());
        line.push(',');
        line.push_str(&json[1..]);
        line.push('\n');
        let mut writer = self.writer.lock().unwrap();
        // Telemetry must never take the process down: I/O errors are
        // swallowed (a broken trace file is an inconvenience, a panicked
        // estimator is a bug).
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use std::sync::Arc;

    fn event(name: &'static str, n: u64) -> Event {
        Event {
            name,
            at_seconds: 0.0,
            fields: vec![("n", Value::U64(n))],
        }
    }

    #[test]
    fn ring_keeps_newest_on_overflow() {
        let ring = RingSink::with_capacity(2);
        ring.emit(&event("a", 1));
        ring.emit(&event("b", 2));
        ring.emit(&event("c", 3));
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "b");
        assert_eq!(events[1].name, "c");
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let sink = JsonlSink::from_writer(Box::new(shared.clone()));
        sink.emit(&event("a", 1));
        sink.emit(&event("b", 2));
        sink.flush();
        let bytes = shared.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"v":1,"event":"a","t":0.0,"n":1}"#);
        assert_eq!(lines[1], r#"{"v":1,"event":"b","t":0.0,"n":2}"#);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        // A capture must survive `drop` without an explicit flush —
        // truncated tails should only come from crashes, not clean exits.
        #[derive(Clone, Default)]
        struct Counting(Arc<Mutex<(Vec<u8>, usize)>>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.lock().unwrap().1 += 1;
                Ok(())
            }
        }
        let shared = Counting::default();
        {
            let sink = JsonlSink::from_writer(Box::new(shared.clone()));
            sink.emit(&event("a", 1));
        } // dropped here, never explicitly flushed
        let (bytes, flushes) = {
            let guard = shared.0.lock().unwrap();
            (guard.0.clone(), guard.1)
        };
        assert!(flushes >= 1, "drop must flush the writer");
        assert!(String::from_utf8(bytes).unwrap().ends_with("\"n\":1}\n"));
    }
}
