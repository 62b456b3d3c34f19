//! Golden wire bytes for the metrics plane: the exporter's `/healthz`
//! after an anomaly, its other endpoint answers, and the JSONL lines the
//! hub's emitters write, pinned as literal strings.

use pim_metrics::{ChunkObs, HealthSink, HealthState, JsonlSink, MetricsHub, MetricsServer};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

fn http(addr: SocketAddr, request: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn serve() -> (Arc<MetricsHub>, MetricsServer) {
    let hub = Arc::new(MetricsHub::new());
    let health = Arc::new(HealthState::new());
    hub.add_sink(Box::new(HealthSink::new(Arc::clone(&health))));
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&hub), health).expect("bind");
    (hub, server)
}

#[test]
fn exporter_healthz_after_an_anomaly_keeps_its_bytes() {
    let (hub, mut server) = serve();
    hub.phase_change("sample_creation");
    hub.chunk(ChunkObs {
        index: 0,
        edges: 250,
        offered: 200,
        kept: 150,
        routed_bytes: 1000,
        peak_routed_bytes: 1000,
        mg_summary: 3,
    });
    hub.anomaly("straggler", "count: \"slow\" core\n\u{1}tab\there é");
    assert_eq!(
        get(server.addr(), "/healthz"),
        concat!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 178\r\n",
            "Connection: close\r\n\r\n",
            r#"{"status":"degraded","phase":"sample_creation","last_seq":3,"edges_ingested":250,"#,
            r#""chunks":1,"anomaly_count":1,"anomalies":["#,
            r#""straggler: count: \"slow\" core\n\u0001tab\there é"]}"#,
        )
    );
    server.shutdown();
}

#[test]
fn exporter_endpoint_table_keeps_its_bytes() {
    let (_hub, mut server) = serve();
    let addr = server.addr();
    assert_eq!(
        get(addr, "/trace"),
        concat!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 41\r\n",
            "Connection: close\r\n\r\n",
            r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#,
        )
    );
    assert_eq!(
        get(addr, "/nope?x=1"),
        concat!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 36\r\n",
            "Connection: close\r\n\r\nendpoints: /metrics /healthz /trace\n",
        )
    );
    assert_eq!(
        http(addr, "POST /metrics HTTP/1.1\r\n\r\n"),
        concat!(
            "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: text/plain\r\n",
            "Content-Length: 22\r\nConnection: close\r\n\r\nonly GET is supported\n",
        )
    );
    server.update_trace(r#"{"traceEvents":[]}"#.into());
    assert_eq!(
        get(addr, "/trace"),
        concat!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 18\r\n",
            "Connection: close\r\n\r\n",
            r#"{"traceEvents":[]}"#,
        )
    );
    server.shutdown();
}

#[test]
fn emitted_jsonl_lines_keep_their_bytes() {
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
    let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
    let hub = MetricsHub::new();
    hub.add_sink(Box::new(JsonlSink::new(Box::new(Shared(buf.clone())))));
    hub.phase_change("setup");
    hub.transfer("push", "setup", 4, 4096, 1.25e-6, true);
    hub.transfer("gather", "triangle_count", 2, 64, 0.1 + 0.2, false);
    hub.host("retry:push", "setup", 1e-4);
    hub.host("route", "sample_creation", f64::NAN);
    hub.anomaly("stall", "no \"progress\"\\");
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    assert_eq!(
        text,
        concat!(
            r#"{"seq":1,"kind":"phase","to":"setup"}"#,
            "\n",
            r#"{"seq":2,"kind":"transfer","op":"push","phase":"setup","writes":4,"bytes":4096,"#,
            r#""seconds":1.25e-6,"ok":true}"#,
            "\n",
            r#"{"seq":3,"kind":"transfer","op":"gather","phase":"triangle_count","writes":2,"#,
            r#""bytes":64,"seconds":0.30000000000000004,"ok":false}"#,
            "\n",
            r#"{"seq":4,"kind":"host","label":"retry:push","phase":"setup","seconds":0.0001}"#,
            "\n",
            r#"{"seq":5,"kind":"host","label":"route","phase":"sample_creation","seconds":null}"#,
            "\n",
            r#"{"seq":6,"kind":"anomaly","anomaly_kind":"stall","detail":"no \"progress\"\\"}"#,
            "\n",
        )
    );
}
