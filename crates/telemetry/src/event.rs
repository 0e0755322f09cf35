//! Structured events.

use crate::json::{write_str, Json};

/// A single typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Floating-point field.
    F64(f64),
    /// Unsigned integer field.
    U64(u64),
    /// String field.
    Str(String),
}

/// One structured event: a name, a timestamp (seconds since the
/// telemetry epoch), and ordered key/value fields.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name, e.g. `"query"` or `"bandwidth.step"`.
    pub name: &'static str,
    /// Seconds since the telemetry epoch.
    pub at_seconds: f64,
    /// Fields in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

/// Renders a float slice as one space-separated string (`"0.5 1.25"`)
/// using round-trip (`{:?}`) formatting, so each element parses back
/// bit-exactly. The encoding of [`Event::f64_slice`].
pub(crate) fn join_f64s(values: &[f64]) -> String {
    let mut joined = String::with_capacity(values.len() * 12);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            joined.push(' ');
        }
        joined.push_str(&format!("{v:?}"));
    }
    joined
}

impl Event {
    /// Starts an empty event stamped with the current telemetry time, to
    /// be populated with the chainable field methods below.
    ///
    /// Construction is not gated: records that must exist without a
    /// global sink (e.g. workload capture files) build one directly.
    /// Instrumentation that only feeds the global sink checks
    /// [`crate::tracing`] first, so nothing is built or allocated while
    /// tracing is off, and hands the event to [`crate::emit_event`].
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            at_seconds: crate::now_seconds(),
            fields: Vec::new(),
        }
    }

    /// Adds a float field.
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, Value::F64(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, Value::U64(value)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &'static str, value: impl AsRef<str>) -> Self {
        self.fields
            .push((key, Value::Str(value.as_ref().to_string())));
        self
    }

    /// Adds a float-slice field rendered as one space-separated string
    /// (`"0.5 1.25"`) in round-trip formatting — used for bandwidth-vector
    /// snapshots, where the dimensionality varies per model and keys must
    /// stay `'static`.
    pub fn f64_slice(mut self, key: &'static str, values: &[f64]) -> Self {
        self.fields.push((key, Value::Str(join_f64s(values))));
        self
    }

    /// Adds the `trace`/`span`/`parent` identity fields of `ctx`.
    pub fn ctx(self, ctx: &crate::SpanContext) -> Self {
        self.u64("trace", ctx.trace)
            .u64("span", ctx.span)
            .u64("parent", ctx.parent)
    }

    /// Looks up a float field (also widening `u64` fields).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                Value::F64(x) => *x,
                Value::U64(x) => *x as f64,
                Value::Str(_) => f64::NAN,
            })
    }

    /// Looks up an unsigned integer field.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::U64(x) if *k == key => Some(*x),
            _ => None,
        })
    }

    /// Looks up a string field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// Renders the event as one JSON object (no trailing newline), e.g.
    /// `{"event":"query","t":1.25,"estimate":0.5}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"event\":");
        write_str(&mut out, self.name);
        out.push_str(",\"t\":");
        Json::from(self.at_seconds).write(&mut out);
        for (key, value) in &self.fields {
            out.push(',');
            write_str(&mut out, key);
            out.push(':');
            match value {
                Value::F64(v) => Json::from(*v).write(&mut out),
                Value::U64(v) => Json::from(*v).write(&mut out),
                Value::Str(s) => write_str(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_includes_all_fields_in_order() {
        let e = Event {
            name: "query",
            at_seconds: 0.5,
            fields: vec![
                ("estimate", Value::F64(0.25)),
                ("rows", Value::U64(100)),
                ("kernel", Value::Str("gauss\"ian".into())),
            ],
        };
        assert_eq!(
            e.to_json(),
            r#"{"event":"query","t":0.5,"estimate":0.25,"rows":100,"kernel":"gauss\"ian"}"#
        );
    }

    #[test]
    fn field_lookup_by_type() {
        let e = Event {
            name: "x",
            at_seconds: 0.0,
            fields: vec![
                ("a", Value::F64(1.5)),
                ("n", Value::U64(7)),
                ("s", Value::Str("hi".into())),
            ],
        };
        assert_eq!(e.get_f64("a"), Some(1.5));
        assert_eq!(e.get_f64("n"), Some(7.0), "u64 widens to f64");
        assert_eq!(e.get_u64("n"), Some(7));
        assert_eq!(e.get_u64("a"), None);
        assert_eq!(e.get_str("s"), Some("hi"));
        assert_eq!(e.get_f64("missing"), None);
    }

    #[test]
    fn slice_field_round_trips_as_string() {
        let e = Event::new("bw").f64_slice("h", &[0.5, 1.25]);
        assert_eq!(e.get_str("h"), Some("0.5 1.25"));
    }
}
