//! Socket-level battery for the `pimtc serve` daemon: every protocol
//! verb on the happy path, plus the abuse cases — malformed JSON,
//! oversized frames, unknown sessions, double-close, torn frames and
//! mid-stream disconnects. The daemon must answer each with a structured
//! error (or survive the disconnect) and never panic or wedge.

use pim_server::{ServeConfig, Server};
use pim_sim::PimConfig;
use pim_tc_integration::{err_code, field_u64, is_ok, ServeClient};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;

/// A small two-rank machine every test shares the shape of.
fn test_server() -> Server {
    test_server_with(|_| {})
}

fn test_server_with(tweak: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig {
        ranks: 2,
        pim: PimConfig {
            total_dpus: 64,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        },
        queue_depth: 8,
        workers: 2,
        max_frame: 4096,
        drain_dir: None,
    };
    tweak(&mut cfg);
    Server::start("127.0.0.1:0", cfg).expect("start serve daemon")
}

const CREATE: &str = r#"{"op":"create-session","colors":2,"seed":11,"backend":"functional"}"#;

#[test]
fn every_verb_round_trips() {
    let server = test_server();
    let mut c = ServeClient::connect(server.addr());

    let pong = c.call(r#"{"op":"ping"}"#);
    assert!(is_ok(&pong), "{pong:?}");

    let created = c.call(CREATE);
    assert!(is_ok(&created), "{created:?}");
    let id = field_u64(&created, "session");
    assert!(created.get("config").is_some(), "create echoes the config");
    let leases = created.get("leases").and_then(Value::as_array).unwrap();
    assert!(!leases.is_empty(), "create reports the DPU leases");

    let appended = c.call(&format!(
        r#"{{"op":"append-edges","session":{id},"edges":[[0,1],[1,2],[0,2],[2,3]]}}"#
    ));
    assert!(is_ok(&appended), "{appended:?}");
    assert_eq!(field_u64(&appended, "appended"), 4);
    assert_eq!(field_u64(&appended, "seq"), 1);

    // Duplicate and self-loop edges are dropped by the host-side dedup.
    let appended = c.call(&format!(
        r#"{{"op":"append-edges","session":{id},"edges":[[1,0],[3,3],[3,4]]}}"#
    ));
    assert_eq!(field_u64(&appended, "appended"), 1, "{appended:?}");

    let counted = c.call(&format!(r#"{{"op":"query-count","session":{id}}}"#));
    assert!(is_ok(&counted), "{counted:?}");
    assert_eq!(field_u64(&counted, "triangles"), 1);
    assert!(counted.get("estimate_bits").is_some());

    let dir = std::env::temp_dir().join("pimtc_serve_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let ckpt = c.call(&format!(
        r#"{{"op":"checkpoint","session":{id},"dir":{:?}}}"#,
        dir.to_string_lossy()
    ));
    assert!(is_ok(&ckpt), "{ckpt:?}");
    assert!(pim_tc::SessionCheckpoint::exists(&dir), "snapshot on disk");
    std::fs::remove_dir_all(&dir).ok();
    // A checkpoint is progress: the watchdog pass after it raises no stall.
    let healthz = http_get(&server, "/healthz");
    let doc: Value = serde_json::from_str(healthz.split("\r\n\r\n").nth(1).unwrap()).unwrap();
    assert_eq!(
        doc.get("status").and_then(Value::as_str),
        Some("ok"),
        "{healthz}"
    );

    let stats = c.call(r#"{"op":"stats"}"#);
    assert_eq!(field_u64(&stats, "sessions_active"), 1, "{stats:?}");
    assert_eq!(field_u64(&stats, "admitted"), 1);

    let closed = c.call(&format!(r#"{{"op":"close","session":{id}}}"#));
    assert!(is_ok(&closed), "{closed:?}");
    let stats = c.call(r#"{"op":"stats"}"#);
    assert_eq!(field_u64(&stats, "sessions_active"), 0);
    assert_eq!(field_u64(&stats, "leased_dpus"), 0, "close frees the lease");
}

#[test]
fn malformed_and_unknown_frames_get_structured_errors() {
    let server = test_server();
    let mut c = ServeClient::connect(server.addr());

    for (frame, want) in [
        ("this is not json", "bad-request"),
        (r#"{"no":"op"}"#, "bad-request"),
        (r#"{"op":"frobnicate"}"#, "unknown-op"),
        (r#"{"op":"create-session"}"#, "bad-request"), // colors missing
        (r#"{"op":"append-edges","session":1}"#, "bad-request"), // edges missing
        (
            r#"{"op":"append-edges","session":1,"edges":[[0]]}"#,
            "bad-request",
        ),
        (r#"{"op":"query-count","session":9999}"#, "unknown-session"),
        (r#"{"op":"close","session":9999}"#, "unknown-session"),
        (
            r#"{"op":"create-session","colors":2,"backend":"quantum"}"#,
            "bad-request",
        ),
        (
            r#"{"op":"create-session","colors":2,"faults":"bogus=1"}"#,
            "bad-request",
        ),
    ] {
        let v = c.call(frame);
        assert!(!is_ok(&v), "{frame} must fail");
        assert_eq!(err_code(&v).as_deref(), Some(want), "frame: {frame}");
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(!msg.is_empty());
    }

    // The connection is still healthy after every error.
    assert!(is_ok(&c.call(r#"{"op":"ping"}"#)));
}

/// Regression: a line that was not UTF-8 got no answer at all, so the
/// client waited forever for its response.
#[test]
fn non_utf8_frames_get_a_bad_request_answer() {
    let server = test_server();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut call = |frame: &[u8]| -> Value {
        writer.write_all(frame).unwrap();
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    };
    let v = call(b"{\"op\":\"pi\xffng\"}\n");
    assert_eq!(err_code(&v).as_deref(), Some("bad-request"), "{v:?}");
    // The connection keeps serving.
    assert!(is_ok(&call(b"{\"op\":\"ping\"}\n")));
}

#[test]
fn oversized_frames_are_refused_without_wedging_the_server() {
    let server = test_server();
    let mut c = ServeClient::connect(server.addr());
    let huge = format!(
        r#"{{"op":"append-edges","session":1,"edges":[{}]}}"#,
        vec!["[0,1]"; 2000].join(",")
    );
    assert!(huge.len() > 4096);
    let v = c.call(&huge);
    assert_eq!(err_code(&v).as_deref(), Some("frame-too-large"), "{v:?}");
    // That connection is closed; a fresh one still works.
    let mut c = ServeClient::connect(server.addr());
    assert!(is_ok(&c.call(r#"{"op":"ping"}"#)));
}

#[test]
fn double_close_and_post_close_ops_error_cleanly() {
    let server = test_server();
    let mut c = ServeClient::connect(server.addr());
    let id = field_u64(&c.call(CREATE), "session");
    assert!(is_ok(
        &c.call(&format!(r#"{{"op":"close","session":{id}}}"#))
    ));
    // The session is gone: close again, append, count all refuse.
    for op in ["close", "append-edges", "query-count"] {
        let frame = if op == "append-edges" {
            format!(r#"{{"op":"{op}","session":{id},"edges":[[0,1]]}}"#)
        } else {
            format!(r#"{{"op":"{op}","session":{id}}}"#)
        };
        let v = c.call(&frame);
        assert_eq!(
            err_code(&v).as_deref(),
            Some("unknown-session"),
            "{op}: {v:?}"
        );
    }
}

#[test]
fn torn_frames_and_midstream_disconnects_leave_the_server_healthy() {
    let server = test_server();
    // A client tears off mid-frame (no trailing newline) and vanishes.
    let torn = ServeClient::connect(server.addr());
    torn.send_partial_and_disconnect(br#"{"op":"create-session","col"#);
    // Another vanishes mid-stream with a session open.
    let mut mid = ServeClient::connect(server.addr());
    let id = field_u64(&mid.call(CREATE), "session");
    mid.send_partial_and_disconnect(br#"{"op":"append-edges","#);
    // The server keeps serving new clients; the orphaned session is
    // still addressable (and closable) from a different connection.
    let mut c = ServeClient::connect(server.addr());
    assert!(is_ok(&c.call(r#"{"op":"ping"}"#)));
    let v = c.call(&format!(r#"{{"op":"query-count","session":{id}}}"#));
    assert!(is_ok(&v), "orphaned session still serves: {v:?}");
    assert!(is_ok(
        &c.call(&format!(r#"{{"op":"close","session":{id}}}"#))
    ));
}

#[test]
fn admission_rejections_name_the_binding_limit() {
    // One rank of 8 cores: C=3 needs 10 cores per rank.
    let server = test_server_with(|cfg| {
        cfg.ranks = 1;
        cfg.pim.total_dpus = 8;
    });
    let mut c = ServeClient::connect(server.addr());
    let v = c.call(r#"{"op":"create-session","colors":3}"#);
    assert_eq!(err_code(&v).as_deref(), Some("admission"), "{v:?}");
    let msg = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(msg.contains("dpus limit"), "names the limit: {msg}");
    // A session over more ranks than the machine has is a ranks
    // rejection.
    let v = c.call(r#"{"op":"create-session","colors":2,"ranks":3}"#);
    let msg = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(msg.contains("ranks limit"), "{msg}");
    // Small enough fits.
    assert!(is_ok(&c.call(r#"{"op":"create-session","colors":1}"#)));
}

#[test]
fn http_mount_serves_metrics_and_per_session_healthz() {
    let server = test_server();
    let mut c = ServeClient::connect(server.addr());
    let id = field_u64(&c.call(CREATE), "session");
    c.call(&format!(
        r#"{{"op":"append-edges","session":{id},"edges":[[0,1],[1,2],[0,2]]}}"#
    ));
    c.call(&format!(r#"{{"op":"query-count","session":{id}}}"#));

    let healthz = http_get(&server, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200"), "{healthz}");
    let body = healthz.split("\r\n\r\n").nth(1).unwrap();
    let doc: Value = serde_json::from_str(body).expect("healthz is JSON");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    let sessions = doc.get("sessions").and_then(Value::as_array).unwrap();
    assert_eq!(sessions.len(), 1);
    let s = &sessions[0];
    assert_eq!(field_u64(s, "id"), id);
    assert_eq!(field_u64(s, "edges"), 3);
    assert!(field_u64(s, "seq") >= 2, "append + count applied");
    assert!(s.get("phase").is_some());
    assert!(s.get("leases").and_then(Value::as_array).is_some());

    let metrics = http_get(&server, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    let body = metrics.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.contains("pim_serve_sessions_active"), "{body}");
    pim_metrics::lint_prometheus(body).expect("scrape passes the linter");

    let missing = http_get(&server, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
}

/// Regression: the daemon read HTTP headers with an uncapped
/// `read_line`, so one endless header line grew a buffer for as long as
/// the client kept sending, and was then answered. The header block now
/// shares the frame cap: past it the connection closes unanswered and
/// the refusal is counted.
#[test]
fn http_header_block_past_the_frame_cap_closes_the_connection() {
    let server = test_server_with(|cfg| cfg.max_frame = 256);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // The daemon may close mid-write; a refused write is the point.
    let _ = stream.write_all(b"GET /metrics HTTP/1.1\r\nX-Filler: ");
    let _ = stream.write_all(&[b'a'; 16 * 1024]);
    let mut answer = Vec::new();
    let _ = stream.read_to_end(&mut answer);
    assert!(
        answer.is_empty(),
        "an over-long header block must not be answered: {:?}",
        String::from_utf8_lossy(&answer[..answer.len().min(80)])
    );
    let rejected = server
        .hub()
        .registry()
        .counter("pim_serve_frames_rejected_total")
        .get();
    assert_eq!(rejected, 1);
    // The daemon keeps serving fresh connections.
    let mut c = ServeClient::connect(server.addr());
    assert!(is_ok(&c.call(r#"{"op":"ping"}"#)));
}

fn http_get(server: &Server, path: &str) -> String {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn drain_checkpoints_every_live_session_and_refuses_new_work() {
    let dir = std::env::temp_dir().join("pimtc_serve_drain_test");
    std::fs::remove_dir_all(&dir).ok();
    let dir2 = dir.clone();
    let mut server = test_server_with(move |cfg| cfg.drain_dir = Some(dir2));
    let mut c = ServeClient::connect(server.addr());
    let a = field_u64(&c.call(CREATE), "session");
    let b = field_u64(
        &c.call(r#"{"op":"create-session","colors":2,"seed":99,"backend":"functional"}"#),
        "session",
    );
    c.call(&format!(
        r#"{{"op":"append-edges","session":{a},"edges":[[0,1],[1,2],[0,2]]}}"#
    ));

    let v = c.call(r#"{"op":"shutdown"}"#);
    assert!(is_ok(&v), "{v:?}");
    // Post-drain, new sessions and ops are refused with `draining`.
    let v = c.call(CREATE);
    assert_eq!(err_code(&v).as_deref(), Some("draining"), "{v:?}");
    let v = c.call(&format!(
        r#"{{"op":"append-edges","session":{a},"edges":[[5,6]]}}"#
    ));
    assert_eq!(err_code(&v).as_deref(), Some("draining"), "{v:?}");

    let report = server.finish();
    assert_eq!(report.sessions, 2);
    let ids: Vec<u64> = report.checkpointed.iter().map(|(id, _)| *id).collect();
    assert!(ids.contains(&a) && ids.contains(&b), "{ids:?}");
    for id in [a, b] {
        assert!(
            pim_tc::SessionCheckpoint::exists(&dir.join(format!("session-{id}"))),
            "session {id} snapshot missing"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
