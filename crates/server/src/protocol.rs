//! The wire protocol `pimtc serve` speaks: line-delimited JSON frames.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry an `"op"` discriminator; the
//! verbs are `ping`, `create-session`, `append-edges`, `query-count`,
//! `checkpoint`, `close`, `stats`, and `shutdown`. Responses always carry
//! `"ok"` — `true` with op-specific payload fields, or `false` with an
//! `"error": {"code", "message"}` object whose code is one of
//! [`ErrorCode`]'s stable strings. The full grammar, with examples, lives
//! in `docs/SERVING.md`.
//!
//! Frames are bounded: a request line longer than the server's configured
//! maximum (default [`DEFAULT_MAX_FRAME`]) is answered with a
//! `frame-too-large` error and the connection is closed — the remainder
//! of the oversized line cannot be resynchronized safely.

use pim_graph::Edge;
use serde_json::{json, Reader, Token, Value};

/// Default cap on one request line, bytes (1 MiB ≈ 65k edges per append).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Stable error codes carried in `{"error":{"code":...}}` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame parsed as JSON but the request is malformed: missing or
    /// ill-typed fields, or not a JSON object at all.
    BadRequest,
    /// The `"op"` discriminator names no known verb.
    UnknownOp,
    /// The `"session"` id names no live session.
    UnknownSession,
    /// The session was already closed (double-close lands here too).
    SessionClosed,
    /// The admission controller rejected the session; the message names
    /// the binding limit (`dpus`, `ranks`, `mram`, or `config`).
    Admission,
    /// The request line exceeded the frame cap; the connection closes.
    FrameTooLarge,
    /// An operation failed on the simulated hardware past its retry
    /// budget (the session survives; the op does not).
    Faulted,
    /// A checkpoint could not be captured or persisted.
    Checkpoint,
    /// The server is draining: no new sessions or ops are accepted.
    Draining,
}

impl ErrorCode {
    /// The stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::SessionClosed => "session-closed",
            ErrorCode::Admission => "admission",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::Faulted => "faulted",
            ErrorCode::Checkpoint => "checkpoint",
            ErrorCode::Draining => "draining",
        }
    }
}

/// Parameters of a `create-session` request, straight off the wire.
/// Everything except `colors` is optional; the server resolves the rest
/// to the same defaults `TcConfig::builder()` uses and echoes the fully
/// resolved configuration back, so clients can reproduce the session
/// exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionSpec {
    /// Color count `C` (required — it fixes the partition footprint).
    pub colors: u32,
    /// RNG seed; defaults to the builder's golden-ratio constant.
    pub seed: Option<u64>,
    /// Host-level uniform keep-probability.
    pub uniform_p: Option<f64>,
    /// Per-core reservoir capacity `M`.
    pub capacity: Option<u64>,
    /// Misra-Gries heavy-hitter parameters `(k, t)`.
    pub misra_gries: Option<(usize, usize)>,
    /// Ranks to shard the triplet grid over.
    pub ranks: Option<u32>,
    /// Spare cores per rank for failover.
    pub spares: Option<u32>,
    /// Keep replayable per-partition RNG journals.
    pub journal: Option<bool>,
    /// Execution engine: `"timed"` or `"functional"`.
    pub backend: Option<String>,
    /// Fault-injection spec (the `--faults` grammar).
    pub faults: Option<String>,
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; echoes `{"ok":true,"op":"ping"}`.
    Ping,
    /// Admit a new tenant and start its session.
    CreateSession(SessionSpec),
    /// Append a batch of edges to a session's stream.
    AppendEdges {
        /// Target session id.
        session: u64,
        /// The batch, as offered (dedup happens server-side).
        edges: Vec<Edge>,
    },
    /// Run the counting pipeline on the resident samples.
    QueryCount {
        /// Target session id.
        session: u64,
    },
    /// Persist a `PIMTCKPT` snapshot of the session.
    Checkpoint {
        /// Target session id.
        session: u64,
        /// Destination directory; defaults to the server's drain dir.
        dir: Option<String>,
    },
    /// Tear the session down and release its DPU leases.
    Close {
        /// Target session id.
        session: u64,
    },
    /// Server-wide counters: sessions, admissions, leases.
    Stats,
    /// Begin a graceful drain (same path as SIGTERM).
    Shutdown,
}

/// Parses one request line. Errors come back as `(code, message)` pairs
/// ready to serialize with [`error_response`].
pub fn parse_request(line: &str) -> Result<Request, (ErrorCode, String)> {
    let fields = Fields::read(line.trim())
        .map_err(|e| bad(format!("not valid JSON: {e}")))?
        .map_err(|kind| bad(format!("expected a JSON object, got {kind}")))?;
    let op = fields.get("op").and_then(Value::as_str);
    match op.ok_or_else(|| bad("missing string field \"op\""))? {
        "ping" => Ok(Request::Ping),
        "create-session" => Ok(Request::CreateSession(parse_session_spec(&fields)?)),
        "append-edges" => Ok(Request::AppendEdges {
            session: session_id(&fields)?,
            edges: (fields.edges)
                .unwrap_or_else(|| Err(NO_EDGES.into()))
                .map_err(bad)?,
        }),
        "query-count" => Ok(Request::QueryCount {
            session: session_id(&fields)?,
        }),
        "checkpoint" => Ok(Request::Checkpoint {
            session: session_id(&fields)?,
            dir: fields
                .get("dir")
                .and_then(Value::as_str)
                .map(str::to_string),
        }),
        "close" => Ok(Request::Close {
            session: session_id(&fields)?,
        }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err((ErrorCode::UnknownOp, format!("unknown op {other:?}"))),
    }
}

fn bad(message: impl Into<String>) -> (ErrorCode, String) {
    (ErrorCode::BadRequest, message.into())
}

const NO_EDGES: &str = "append-edges requires an \"edges\" array";

/// Scalar members some verb reads.
#[rustfmt::skip]
const SCALARS: &[&str] = &[
    "op", "session", "dir", "colors", "seed", "uniform_p", "capacity", "ranks", "spares",
    "journal", "backend", "faults",
];

/// A result whose error is malformed JSON.
type Json<T> = Result<T, serde_json::Error>;

/// A request frame's members, read straight off the token reader: no
/// value tree is built, `edges` go into their vector, and members no verb
/// reads are skipped. The first occurrence of a key wins. A member of the
/// wrong shape is kept as such and reported only by a verb that reads
/// it, so `{"op":"ping","edges":5}` is still a ping.
#[derive(Default)]
struct Fields {
    /// [`SCALARS`] members; an array or object reads as `Null`, which no
    /// accessor takes.
    scalars: Vec<(&'static str, Value)>,
    /// `misra_gries`: `None` inside unless a two-element array.
    misra_gries: Option<Option<[Option<u64>; 2]>>,
    /// `edges`, or the message naming its first misshapen part.
    edges: Option<Result<Vec<Edge>, String>>,
}

impl Fields {
    /// Reads a frame. The inner `Err` names the JSON kind of a frame that
    /// is no object.
    fn read(text: &str) -> Json<Result<Fields, &'static str>> {
        let mut reader = Reader::new(text);
        let first = reader.next_token()?;
        if first != Token::BeginObject {
            reader.skip_value(&first)?;
            reader.finish()?;
            return Ok(Err(first.into_scalar().map_or("array", |v| v.kind())));
        }
        let mut fields = Fields::default();
        // After `{` the reader yields keys until `}`.
        while let Token::Key(key) = reader.next_token()? {
            let first = reader.next_token()?;
            let scalar = SCALARS.iter().find(|&&name| name == key);
            match (&*key, scalar) {
                ("edges", _) if fields.edges.is_none() => {
                    fields.edges = Some(read_edges(&mut reader, first)?);
                }
                ("misra_gries", _) if fields.misra_gries.is_none() => {
                    fields.misra_gries = Some(read_pair(&mut reader, first)?);
                }
                (_, Some(&name)) if fields.get(name).is_none() => {
                    reader.skip_value(&first)?;
                    let value = first.into_scalar().unwrap_or(Value::Null);
                    fields.scalars.push((name, value));
                }
                _ => reader.skip_value(&first)?,
            }
        }
        reader.finish()?;
        Ok(Ok(fields))
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.scalars
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }
}

/// Reads the rest of an `edges` member whose first token is `first`.
/// The inner `Err` names the member's first misshapen part.
fn read_edges(reader: &mut Reader, first: Token) -> Json<Result<Vec<Edge>, String>> {
    if first != Token::BeginArray {
        reader.skip_value(&first)?;
        return Ok(Err(NO_EDGES.into()));
    }
    let as_u32 = |n: Option<u64>| n.filter(|&n| n <= u32::MAX as u64);
    let mut edges = Vec::new();
    let mut misshapen = None;
    for i in 0.. {
        let item = reader.next_token()?;
        if item == Token::EndArray {
            break;
        }
        let pair = read_pair(reader, item)?;
        if misshapen.is_some() {
            continue;
        }
        misshapen = match pair.map(|[u, v]| (as_u32(u), as_u32(v))) {
            None => Some(format!("edge {i} is not a [u, v] pair")),
            Some((None, _)) => Some(format!("edge {i}: u is not a u32")),
            Some((_, None)) => Some(format!("edge {i}: v is not a u32")),
            Some((Some(u), Some(v))) => {
                edges.push(Edge::new(u as u32, v as u32));
                None
            }
        };
    }
    Ok(misshapen.map_or(Ok(edges), Err))
}

/// Reads the rest of a value whose first token is `first` as a `[a, b]`
/// pair: `None` unless it is an array of exactly two elements; an element
/// that [`Value::as_u64`] refuses reads as `None`.
fn read_pair(reader: &mut Reader, first: Token) -> Json<Option<[Option<u64>; 2]>> {
    if first != Token::BeginArray {
        reader.skip_value(&first)?;
        return Ok(None);
    }
    let (mut pair, mut len) = ([None; 2], 0);
    loop {
        let item = reader.next_token()?;
        match item {
            Token::EndArray => return Ok((len == 2).then_some(pair)),
            Token::U64(n) if len < 2 => pair[len] = Some(n),
            Token::F64(f) if len < 2 => pair[len] = Value::F64(f).as_u64(),
            _ => reader.skip_value(&item)?,
        }
        len += 1;
    }
}

fn session_id(fields: &Fields) -> Result<u64, (ErrorCode, String)> {
    let session = fields.get("session").and_then(Value::as_u64);
    session.ok_or_else(|| bad("missing or non-integer field \"session\""))
}

fn parse_session_spec(fields: &Fields) -> Result<SessionSpec, (ErrorCode, String)> {
    let colors = fields
        .get("colors")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("create-session requires an integer \"colors\""))?;
    if colors == 0 || colors > u32::MAX as u64 {
        return Err(bad("\"colors\" must be in [1, 2^32)"));
    }
    let misra_gries = match fields.misra_gries {
        None => None,
        Some(pair) => {
            let [k, t] = pair.ok_or_else(|| bad("\"misra_gries\" must be a [k, t] pair"))?;
            let k = k.ok_or_else(|| bad("\"misra_gries\" k must be an integer"))?;
            let t = t.ok_or_else(|| bad("\"misra_gries\" t must be an integer"))?;
            Some((k as usize, t as usize))
        }
    };
    let typed_u64 = |name: &str| -> Result<Option<u64>, (ErrorCode, String)> {
        match fields.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("\"{name}\" must be a non-negative integer"))),
        }
    };
    let uniform_p = match fields.get("uniform_p") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| bad("\"uniform_p\" must be a number"))?,
        ),
    };
    let typed_str = |name: &str| -> Result<Option<String>, (ErrorCode, String)> {
        match fields.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| bad(format!("\"{name}\" must be a string"))),
        }
    };
    Ok(SessionSpec {
        colors: colors as u32,
        seed: typed_u64("seed")?,
        uniform_p,
        capacity: typed_u64("capacity")?,
        misra_gries,
        ranks: typed_u64("ranks")?.map(|r| r as u32),
        spares: typed_u64("spares")?.map(|s| s as u32),
        journal: fields.get("journal").map(|v| v.as_bool().unwrap_or(false)),
        backend: typed_str("backend")?,
        faults: typed_str("faults")?,
    })
}

/// Renders one `{"ok":false,...}` error frame (no trailing newline).
pub fn error_response(code: ErrorCode, message: &str) -> String {
    render(json!({
        "ok": false,
        "error": json!({ "code": code.as_str(), "message": message }),
    }))
}

/// Renders one `{"ok":true,"op":...}` frame followed by the members of
/// the `fields` object, in order (no trailing newline).
pub fn ok_response(op: &str, fields: Value) -> String {
    let mut frame = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("op".to_string(), Value::Str(op.to_string())),
    ];
    if let Value::Object(fields) = fields {
        frame.extend(fields);
    }
    render(Value::Object(frame))
}

fn render(frame: Value) -> String {
    serde_json::to_string(&frame).expect("a value tree always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(" {\"op\":\"stats\"} ").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let create = parse_request(
            "{\"op\":\"create-session\",\"colors\":3,\"seed\":7,\"ranks\":2,\
             \"misra_gries\":[64,16],\"backend\":\"functional\"}",
        )
        .unwrap();
        match create {
            Request::CreateSession(spec) => {
                assert_eq!(spec.colors, 3);
                assert_eq!(spec.seed, Some(7));
                assert_eq!(spec.ranks, Some(2));
                assert_eq!(spec.misra_gries, Some((64, 16)));
                assert_eq!(spec.backend.as_deref(), Some("functional"));
                assert_eq!(spec.capacity, None);
            }
            other => panic!("parsed {other:?}"),
        }
        let append =
            parse_request("{\"op\":\"append-edges\",\"session\":4,\"edges\":[[1,2],[3,4]]}")
                .unwrap();
        assert_eq!(
            append,
            Request::AppendEdges {
                session: 4,
                edges: vec![Edge::new(1, 2), Edge::new(3, 4)],
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"query-count\",\"session\":9}").unwrap(),
            Request::QueryCount { session: 9 }
        );
        assert_eq!(
            parse_request("{\"op\":\"checkpoint\",\"session\":9,\"dir\":\"/tmp/x\"}").unwrap(),
            Request::Checkpoint {
                session: 9,
                dir: Some("/tmp/x".into())
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"close\",\"session\":1}").unwrap(),
            Request::Close { session: 1 }
        );
    }

    #[test]
    fn malformed_frames_are_structured_errors() {
        for (line, want) in [
            ("not json", ErrorCode::BadRequest),
            ("[1,2,3]", ErrorCode::BadRequest),
            ("{\"no\":\"op\"}", ErrorCode::BadRequest),
            ("{\"op\":\"warp\"}", ErrorCode::UnknownOp),
            ("{\"op\":\"append-edges\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"append-edges\",\"session\":1,\"edges\":[[1]]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"append-edges\",\"session\":1,\"edges\":[[1,99999999999]]}",
                ErrorCode::BadRequest,
            ),
            ("{\"op\":\"create-session\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"create-session\",\"colors\":0}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"create-session\",\"colors\":2,\"misra_gries\":[1]}",
                ErrorCode::BadRequest,
            ),
            ("{\"op\":\"close\"}", ErrorCode::BadRequest),
        ] {
            let (code, msg) = parse_request(line).unwrap_err();
            assert_eq!(code, want, "line {line:?} → {msg}");
            // The error frame itself must be valid JSON.
            let rendered = error_response(code, &msg);
            let parsed: Value = serde_json::from_str(&rendered).unwrap();
            assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
            assert_eq!(
                parsed
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str),
                Some(code.as_str())
            );
        }
    }

    #[test]
    fn responses_render_valid_json() {
        let ok = ok_response("ping", json!({ "session": 3u64 }));
        let parsed: Value = serde_json::from_str(&ok).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("session").and_then(Value::as_u64), Some(3));
        let err = error_response(ErrorCode::FrameTooLarge, "line \"quoted\"\npast cap");
        let parsed: Value = serde_json::from_str(&err).unwrap();
        assert!(parsed
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap()
            .contains("quoted"));
    }
}
