//! Structured metric events and the sinks that consume them.
//!
//! Every observable action in the stack — a transfer, a kernel launch, a
//! retry span, an injected fault, a streamed chunk — becomes one [`Event`]:
//! a monotonic sequence number, a kind tag, and a flat list of typed
//! fields. Events are rendered as one JSON object per line (JSONL), which
//! makes a live run tailable with standard tools, and re-parsed by
//! [`Event::parse`] for offline aggregation.

use serde_json::Token;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A field value carried by an [`Event`]: the JSON value model. Emitters
/// use its scalar variants (`U64`, `I64`, `F64`, `Str`, `Bool`); a
/// non-finite `F64` renders as JSON `null`.
pub use serde_json::Value as FieldValue;

/// One structured metric event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number, strictly increasing per
    /// [`crate::MetricsHub`] (starts at 1).
    pub seq: u64,
    /// Event kind tag: `"alloc"`, `"phase"`, `"transfer"`, `"launch"`,
    /// `"hist"`, `"host"`, `"fault"`, `"chunk"`, `"reservoir"`,
    /// `"failover"`, `"anomaly"`, `"journal_replay"`, `"scrub"`, or
    /// `"checkpoint"`.
    pub kind: String,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Looks up a payload field by name.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A field that is an unsigned integer; `None` for any other value,
    /// an integral float included.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(&FieldValue::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// `u64` field accessor (0 when missing or mistyped).
    pub fn u64_field(&self, name: &str) -> u64 {
        self.get_u64(name).unwrap_or(0)
    }

    /// `f64` field accessor (0.0 when missing or mistyped).
    pub fn f64_field(&self, name: &str) -> f64 {
        self.get(name).and_then(FieldValue::as_f64).unwrap_or(0.0)
    }

    /// `str` field accessor (`""` when missing or mistyped).
    pub fn str_field(&self, name: &str) -> &str {
        self.get(name).and_then(FieldValue::as_str).unwrap_or("")
    }

    /// Renders the event as one JSON object on a single line:
    /// `{"seq":N,"kind":"...","field":value,...}`.
    pub fn to_json_line(&self) -> String {
        let mut object = Vec::with_capacity(self.fields.len() + 2);
        object.push(("seq".to_string(), FieldValue::U64(self.seq)));
        object.push(("kind".to_string(), FieldValue::Str(self.kind.clone())));
        object.extend(self.fields.iter().cloned());
        serde_json::to_string(&FieldValue::Object(object)).expect("a value tree always renders")
    }

    /// Parses one JSONL line produced by [`Event::to_json_line`].
    ///
    /// Accepts any flat JSON object whose values are numbers, strings,
    /// booleans, or `null` (ignored) — the full shape this crate emits —
    /// and requires an unsigned integer `seq` and a string `kind`. The
    /// line is read straight off `serde_json`'s token reader, so the parse
    /// holds about one line of heap; a value tree of the same line can
    /// hold tens of times that.
    pub fn parse(line: &str) -> Result<Event, String> {
        let json = |e: serde_json::Error| format!("{e}: {line}");
        let mut reader = serde_json::Reader::new(line);
        if reader.next_token().map_err(json)? != Token::BeginObject {
            return Err(format!("event line is not a JSON object: {line}"));
        }
        let mut seq = None;
        let mut kind = None;
        let mut rest = Vec::new();
        // After `{` the reader yields keys until `}`.
        while let Token::Key(key) = reader.next_token().map_err(json)? {
            let value = match reader.next_token().map_err(json)?.into_scalar() {
                Some(FieldValue::Null) => continue,
                Some(value) => value,
                None => return Err(format!("event field `{key}` is not a scalar: {line}")),
            };
            match &*key {
                // Strictly an unsigned integer: `1.0` is no sequence number.
                "seq" => {
                    seq = match value {
                        FieldValue::U64(n) => Some(n),
                        _ => None,
                    }
                }
                "kind" => kind = value.as_str().map(str::to_string),
                _ => rest.push((key.into_owned(), value)),
            }
        }
        reader.finish().map_err(json)?;
        Ok(Event {
            seq: seq.ok_or_else(|| format!("event line missing `seq`: {line}"))?,
            kind: kind.ok_or_else(|| format!("event line missing `kind`: {line}"))?,
            fields: rest,
        })
    }
}

/// A subscriber consuming the event stream as it is produced.
///
/// Sinks are registered on a [`crate::MetricsHub`] and receive every event
/// in sequence order, under the hub's emission lock (so implementations
/// need no further synchronization across events).
pub trait MetricsSink: Send {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output (end of run).
    fn flush(&mut self) {}

    /// First I/O error encountered, if any (sinks are infallible at the
    /// call site; errors are surfaced here at flush time).
    fn error(&self) -> Option<String> {
        None
    }
}

/// In-memory event sink: keeps the whole stream in a shared buffer.
///
/// Cloning the sink clones the *handle*, not the buffer — keep one clone
/// and register the other on the hub, then read [`MemorySink::events`]
/// after (or during) the run.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }
}

impl MetricsSink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// JSONL event sink: writes one JSON object per line to any writer,
/// suitable for tailing a live run (`tail -f run.jsonl`).
pub struct JsonlSink {
    writer: Box<dyn Write + Send>,
    error: Option<String>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            writer,
            error: None,
        }
    }

    /// Creates (truncates) `path` and writes the stream to it, buffered.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl MetricsSink for JsonlSink {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json_line();
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e.to_string());
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert(e.to_string());
        }
    }

    fn error(&self) -> Option<String> {
        self.error.clone()
    }
}

/// Flush on drop so a stream is not silently truncated when the sink is
/// dropped without an explicit `flush()` (early return, panic unwind).
impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        Event {
            seq: 7,
            kind: "transfer".into(),
            fields: vec![
                ("op".into(), FieldValue::Str("push".into())),
                ("bytes".into(), FieldValue::U64(1024)),
                ("seconds".into(), FieldValue::F64(0.125)),
                ("ok".into(), FieldValue::Bool(true)),
                ("delta".into(), FieldValue::I64(-3)),
            ],
        }
    }

    #[test]
    fn json_line_round_trips() {
        let e = sample_event();
        let line = e.to_json_line();
        assert_eq!(
            line,
            "{\"seq\":7,\"kind\":\"transfer\",\"op\":\"push\",\"bytes\":1024,\
             \"seconds\":0.125,\"ok\":true,\"delta\":-3}"
        );
        assert_eq!(Event::parse(&line).unwrap(), e);
    }

    #[test]
    fn string_escapes_round_trip() {
        let e = Event {
            seq: 1,
            kind: "host".into(),
            fields: vec![(
                "label".into(),
                FieldValue::Str("a\"b\\c\nd\te\u{1}fé".into()),
            )],
        };
        let back = Event::parse(&e.to_json_line()).unwrap();
        assert_eq!(back, e);
        // Escapes other JSON writers emit: a surrogate pair, `\b`, `\f`.
        for (line, label) in [
            (r#"{"seq":1,"kind":"host","label":"\ud83d\ude00"}"#, "😀"),
            (r#"{"seq":1,"kind":"host","label":"\b\f\/"}"#, "\u{8}\u{c}/"),
        ] {
            assert_eq!(Event::parse(line).unwrap().str_field("label"), label);
        }
        // A lone surrogate is a structured error.
        assert!(Event::parse(r#"{"seq":1,"kind":"host","label":"\ud83d"}"#).is_err());
    }

    #[test]
    fn non_finite_floats_render_null_and_are_dropped() {
        let e = Event {
            seq: 2,
            kind: "x".into(),
            fields: vec![
                ("bad".into(), FieldValue::F64(f64::NAN)),
                ("good".into(), FieldValue::U64(5)),
            ],
        };
        let line = e.to_json_line();
        assert!(line.contains("\"bad\":null"));
        let back = Event::parse(&line).unwrap();
        assert!(back.get("bad").is_none());
        assert_eq!(back.u64_field("good"), 5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse("").is_err());
        assert!(Event::parse("{").is_err());
        assert!(Event::parse("{\"seq\":1}").is_err()); // missing kind
        assert!(Event::parse("{\"kind\":\"x\"}").is_err()); // missing seq
        assert!(Event::parse("{\"seq\":1,\"kind\":\"x\"} tail").is_err());
        assert!(Event::parse("[1,2]").is_err());
        assert!(Event::parse("{\"seq\":1.0,\"kind\":\"x\"}").is_err()); // float seq
        assert!(Event::parse("{\"seq\":1,\"kind\":\"x\",\"a\":[1]}").is_err()); // nested
        assert!(Event::parse("{\"seq\":1,\"kind\":\"x\",\"a\":{}}").is_err());
    }

    #[test]
    fn memory_sink_accumulates() {
        let sink = MemorySink::new();
        let mut registered = sink.clone();
        registered.record(&sample_event());
        registered.record(&sample_event());
        assert_eq!(sink.events().len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        sink.record(&sample_event());
        sink.flush();
        assert!(sink.error().is_none());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert_eq!(Event::parse(text.lines().next().unwrap()).unwrap().seq, 7);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let dir = std::env::temp_dir().join(format!("pim_jsonl_drop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        {
            // Dropped without an explicit flush(): the BufWriter still has
            // the line buffered at this point.
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(&sample_event());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert_eq!(Event::parse(text.lines().next().unwrap()).unwrap().seq, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
