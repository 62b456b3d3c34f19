//! Golden wire bytes for the `pimtc serve` daemon: every frame kind, one
//! error frame from each source (parse, admission, engine), and the
//! per-session `/healthz` response, pinned as literal strings.
//!
//! The sessions run on the functional engine with a fixed seed, so every
//! byte is deterministic; the only normalised field is the checkpoint
//! path, which names a temporary directory.

use pim_server::{ServeConfig, Server};
use pim_sim::PimConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn server() -> Server {
    let cfg = ServeConfig {
        ranks: 2,
        pim: PimConfig {
            total_dpus: 64,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        },
        queue_depth: 8,
        workers: 1,
        max_frame: 4096,
        drain_dir: None,
    };
    Server::start("127.0.0.1:0", cfg).expect("start serve daemon")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one frame and returns the response line without its newline.
    fn call(&mut self, frame: &str) -> String {
        writeln!(self.writer, "{frame}").expect("write frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "unterminated response {line:?}");
        line.pop();
        line
    }
}

fn http_get(server: &Server, path: &str) -> String {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

const CONFIG: &str = r#"{"colors":2,"seed":11,"uniform_p":1.0,"sample_capacity":null,"misra_gries":null,"local_nodes":null,"stage_edges":2048,"route_chunk_edges":262144,"backend":"Functional","intersect":"Adaptive","hardened":false,"max_retries":8,"spare_dpus":0,"journal":false,"scrub_interval":0,"ranks":1,"pim":{"total_dpus":4,"mram_capacity":1048576,"wram_capacity":2048,"iram_capacity":24576,"nr_tasklets":4,"host_threads":2,"fault":null},"cost":{"clock_hz":350000000.0,"pipeline_saturation":11,"dma_setup_cycles":77,"dma_cycles_per_byte":0.53,"muldiv_cycles":32,"xfer_per_dpu_bw":330000000.0,"xfer_aggregate_bw":6680000000.0,"xfer_latency":2e-5,"setup_fixed":0.06,"setup_per_dpu":2.5e-5,"launch_overhead":5e-5}}"#;

#[test]
fn every_frame_kind_keeps_its_wire_bytes() {
    let mut server = server();
    let mut c = Client::connect(&server);

    assert_eq!(c.call(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"ping"}"#);

    let created = c.call(r#"{"op":"create-session","colors":2,"seed":11,"backend":"functional"}"#);
    assert_eq!(
        created,
        format!(
            r#"{{"ok":true,"op":"create-session","session":1,"config":{CONFIG},"leases":[{{"rank":0,"start":0,"len":4}}],"footprint":{{"partitions":4,"ranks":1,"per_rank_dpus":4,"total_dpus":4}}}}"#
        )
    );

    assert_eq!(
        c.call(r#"{"op":"append-edges","session":1,"edges":[[0,1],[1,2],[0,2],[2,3]]}"#),
        r#"{"ok":true,"op":"append-edges","session":1,"appended":4,"edges_total":4,"seq":1}"#
    );
    assert_eq!(
        c.call(r#"{"op":"query-count","session":1}"#),
        r#"{"ok":true,"op":"query-count","session":1,"triangles":1,"estimate":1.0,"estimate_bits":4607182418800017408,"exact":true,"nr_dpus":4,"max_dpu_load":4,"seq":2}"#
    );

    let dir = std::env::temp_dir().join(format!("pimtc_wire_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_json = serde_json::to_string(&dir.display().to_string()).unwrap();
    let ckpt = c.call(&format!(
        r#"{{"op":"checkpoint","session":1,"dir":{dir_json}}}"#
    ));
    std::fs::remove_dir_all(&dir).ok();
    let dir_inner = &dir_json[1..dir_json.len() - 1];
    assert_eq!(
        ckpt.replace(dir_inner, "<dir>"),
        r#"{"ok":true,"op":"checkpoint","session":1,"path":"<dir>/session.ckpt","watermark":2}"#
    );

    assert_eq!(
        http_get(&server, "/healthz"),
        concat!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 282\r\n",
            "Connection: close\r\n\r\n",
            r#"{"status":"ok","draining":false,"sessions_active":1,"admitted":1,"rejected":0,"#,
            r#""leased_dpus":4,"total_dpus":128,"anomaly_count":0,"sessions":[{"id":1,"#,
            r#""phase":"triangle_count","seq":2,"last_seq":18,"queue_depth":0,"edges":4,"#,
            r#""anomaly_count":0,"leases":[{"rank":0,"start":0,"len":4}]}]}"#
        )
    );

    assert_eq!(
        c.call(r#"{"op":"stats"}"#),
        r#"{"ok":true,"op":"stats","sessions_active":1,"admitted":1,"rejected":0,"leased_dpus":4,"total_dpus":128,"ranks":2,"rank_dpus":64,"draining":false,"leases":[{"session":1,"rank":0,"start":0,"len":4}]}"#
    );

    // One error frame per source: the frame parser, admission, the engine.
    assert_eq!(
        c.call("this is not json"),
        r#"{"ok":false,"error":{"code":"bad-request","message":"not valid JSON: expected a JSON value at byte 0"}}"#
    );
    assert_eq!(
        c.call(r#"{"op":"create-session","colors":9,"backend":"functional"}"#),
        r#"{"ok":false,"error":{"code":"admission","message":"rejected (dpus limit): session needs 165 cores per rank (165 partitions / 1 ranks + 0 spares) but each rank has 64"}}"#
    );
    assert_eq!(
        c.call(r#"{"op":"create-session","colors":1,"backend":"functional","faults":"transfer=1000000"}"#),
        r#"{"ok":false,"error":{"code":"faulted","message":"fault recovery exhausted: 9 consecutive failed attempts at 'init' exceeded max_retries = 8"}}"#
    );

    assert_eq!(
        c.call(r#"{"op":"close","session":1}"#),
        r#"{"ok":true,"op":"close","session":1}"#
    );
    assert_eq!(
        c.call(r#"{"op":"shutdown"}"#),
        r#"{"ok":true,"op":"shutdown","draining":true}"#
    );
    server.finish();
}
