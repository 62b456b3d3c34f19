//! Structured metric events and the sinks that consume them.
//!
//! Every observable action in the stack — a transfer, a kernel launch, a
//! retry span, an injected fault, a streamed chunk — becomes one [`Event`]:
//! a monotonic sequence number, a kind tag, and a flat list of typed
//! fields. Events are rendered as one JSON object per line (JSONL), which
//! makes a live run tailable with standard tools, and re-parsed by
//! [`Event::parse`] for offline aggregation.

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
    /// `"host"`, `"fault"`, `"chunk"`, `"reservoir"`, or `"failover"`.
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
    /// The parser accepts any flat JSON object whose values are numbers,
    /// strings, booleans, or `null` (ignored) — the full shape this crate
    /// emits — and requires `seq` and `kind` fields. It holds about one
    /// line of heap; a `serde_json` value tree of the same line can hold
    /// tens of times that.
    pub fn parse(line: &str) -> Result<Event, String> {
        let fields = parse_flat_object(line)?;
        let mut seq = None;
        let mut kind = None;
        let mut rest = Vec::new();
        for (k, v) in fields {
            match k.as_str() {
                // Strictly an unsigned integer: `1.0` is no sequence number.
                "seq" => {
                    seq = match v {
                        FieldValue::U64(n) => Some(n),
                        _ => None,
                    }
                }
                "kind" => kind = v.as_str().map(str::to_string),
                _ => rest.push((k, v)),
            }
        }
        Ok(Event {
            seq: seq.ok_or_else(|| format!("event line missing `seq`: {line}"))?,
            kind: kind.ok_or_else(|| format!("event line missing `kind`: {line}"))?,
            fields: rest,
        })
    }
}

/// Minimal parser for a flat JSON object (no nesting, no arrays): exactly
/// the shape [`Event::to_json_line`] emits. `null` values are dropped.
fn parse_flat_object(input: &str) -> Result<Vec<(String, FieldValue)>, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            if let Some(value) = p.parse_value()? {
                fields.push((key, value));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after object: {input}"));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {other:?}", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit `{}`", d as char))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Option<FieldValue>, String> {
        match self.peek() {
            Some(b'"') => Ok(Some(FieldValue::Str(self.parse_string()?))),
            Some(b't') => {
                self.literal("true")?;
                Ok(Some(FieldValue::Bool(true)))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Some(FieldValue::Bool(false)))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(None)
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number().map(Some),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal `{lit}`"))
        }
    }

    fn parse_number(&mut self) -> Result<FieldValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(FieldValue::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(FieldValue::I64(v));
            }
        }
        text.parse::<f64>()
            .map(FieldValue::F64)
            .map_err(|_| format!("bad number `{text}`"))
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
