//! Live telemetry exporter: an HTTP server over the hub.
//!
//! [`serve_http`] is the one endpoint table; [`MetricsServer`] binds a std
//! [`TcpListener`] and answers it from one background thread while a run
//! is in flight, and `pimtc serve` answers it on the daemon's own
//! listener with its own `/healthz` body:
//!
//! * `GET /metrics` — the live registry rendered in Prometheus text
//!   exposition format (the same bytes `--metrics-format prom` writes at
//!   exit, but scrapeable mid-run);
//! * `GET /healthz` — a JSON health snapshot ([`HealthState`]): run
//!   phase, edges ingested, last-progress watermark (the hub's latest
//!   event sequence number), and any watchdog anomalies;
//! * `GET /trace` — the chrome-trace-so-far, pushed by the driving loop
//!   via [`MetricsServer::update_trace`] (an empty trace until then).
//!
//! The server holds no locks across request handling beyond the
//! registry's own rendering lock, so scraping never blocks emission.
//! Shutdown is graceful: [`MetricsServer::shutdown`] (also run on drop)
//! flips a flag, unblocks the accept loop with a loopback connection, and
//! joins the thread.

use crate::event::{Event, MetricsSink};
use crate::hub::MetricsHub;
use serde_json::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shared health snapshot backing `GET /healthz`.
///
/// Updated passively by a [`HealthSink`] registered on the hub (and by the
/// watchdog via [`HealthState::push_anomaly`]); read by the server thread.
/// All fields are independently synchronized, so readers see a cheap,
/// lock-light snapshot rather than a consistent cut — fine for health
/// checks.
#[derive(Debug, Default)]
pub struct HealthState {
    phase: Mutex<String>,
    last_seq: AtomicU64,
    edges: AtomicU64,
    chunks: AtomicU64,
    anomalies: Mutex<Vec<String>>,
}

impl HealthState {
    /// A fresh, empty health snapshot.
    pub fn new() -> HealthState {
        HealthState::default()
    }

    /// Folds one hub event into the snapshot. Called by [`HealthSink`]
    /// under the hub's emission lock; must never emit back into the hub.
    pub fn observe(&self, event: &Event) {
        self.last_seq.fetch_max(event.seq, Ordering::Relaxed);
        match event.kind.as_str() {
            "phase" => {
                *self.phase.lock().expect("health poisoned") = event.str_field("to").to_string();
            }
            "chunk" => {
                self.chunks.fetch_add(1, Ordering::Relaxed);
                self.edges
                    .fetch_add(event.u64_field("edges"), Ordering::Relaxed);
            }
            "anomaly" => {
                self.push_anomaly(&format!(
                    "{}: {}",
                    event.str_field("anomaly_kind"),
                    event.str_field("detail")
                ));
            }
            _ => {}
        }
    }

    /// Records one anomaly line for `/healthz` (flips status to
    /// `degraded`).
    pub fn push_anomaly(&self, line: &str) {
        self.anomalies
            .lock()
            .expect("health poisoned")
            .push(line.to_string());
    }

    /// Number of anomalies recorded so far.
    pub fn anomaly_count(&self) -> u64 {
        self.anomalies.lock().expect("health poisoned").len() as u64
    }

    /// The current run phase (`""` before the first phase change).
    pub fn phase(&self) -> String {
        self.phase.lock().expect("health poisoned").clone()
    }

    /// The last-progress watermark: highest event seq observed.
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Edges ingested across all chunk events.
    pub fn edges_ingested(&self) -> u64 {
        self.edges.load(Ordering::Relaxed)
    }

    /// Renders the `/healthz` JSON body.
    pub fn render_json(&self) -> String {
        let anomalies = self.anomalies.lock().expect("health poisoned").clone();
        let status = if anomalies.is_empty() {
            "ok"
        } else {
            "degraded"
        };
        let body = json!({
            "status": status,
            "phase": self.phase(),
            "last_seq": self.last_seq(),
            "edges_ingested": self.edges.load(Ordering::Relaxed),
            "chunks": self.chunks.load(Ordering::Relaxed),
            "anomaly_count": anomalies.len(),
            "anomalies": anomalies,
        });
        serde_json::to_string(&body).expect("a value tree always renders")
    }
}

/// A [`MetricsSink`] that feeds a shared [`HealthState`]. It only updates
/// the snapshot's own atomics — it never emits back into the hub, which
/// would deadlock under the emission lock.
pub struct HealthSink(Arc<HealthState>);

impl HealthSink {
    /// A sink updating `state` from every event it sees.
    pub fn new(state: Arc<HealthState>) -> HealthSink {
        HealthSink(state)
    }
}

impl MetricsSink for HealthSink {
    fn record(&mut self, event: &Event) {
        self.0.observe(event);
    }
}

/// The in-process HTTP exporter. See the module docs for the endpoints.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    trace_json: Arc<Mutex<Option<String>>>,
    health: Arc<HealthState>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port) and
    /// starts the background accept loop serving `hub`'s registry and
    /// `health`. Register a [`HealthSink`] over the same `health` on the
    /// hub so `/healthz` tracks the run.
    pub fn start(
        addr: &str,
        hub: Arc<MetricsHub>,
        health: Arc<HealthState>,
    ) -> Result<MetricsServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let trace_json: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let thread_stop = Arc::clone(&stop);
        let thread_trace = Arc::clone(&trace_json);
        let thread_health = Arc::clone(&health);
        let handle = std::thread::Builder::new()
            .name("pim-metrics-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        handle_conn(stream, &hub, &thread_health, &thread_trace);
                    }
                }
            })
            .map_err(|e| format!("cannot spawn exporter thread: {e}"))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
            trace_json,
            health,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The health snapshot served on `/healthz`.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// Replaces the `/trace` body with a freshly rendered chrome trace
    /// (the driving loop pushes this between updates).
    pub fn update_trace(&self, chrome_json: String) {
        *self.trace_json.lock().expect("trace poisoned") = Some(chrome_json);
    }

    /// Stops the accept loop and joins the server thread. Idempotent; also
    /// run on drop.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a throwaway loopback connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_conn(
    stream: TcpStream,
    hub: &MetricsHub,
    health: &HealthState,
    trace_json: &Mutex<Option<String>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut reader = BufReader::new(&stream);
    let mut line = Vec::new();
    if read_head_line(&mut reader, MAX_REQUEST_HEAD, &mut line).is_err() {
        return;
    }
    // An over-long head is dropped unanswered, like an over-long line.
    let _ = serve_http(
        &mut reader,
        &mut &stream,
        &String::from_utf8_lossy(&line),
        MAX_REQUEST_HEAD - line.len(),
        hub,
        || health.render_json(),
        || trace_json.lock().expect("trace poisoned").clone(),
    );
}

/// Cap on an exporter request's head (request line plus headers), bytes.
const MAX_REQUEST_HEAD: usize = 8192;

/// The request head outgrew its byte cap.
#[derive(Debug)]
pub struct HeadTooLarge;

/// Reads one `\n`-terminated head line into `line` (cleared first),
/// reading at most `max + 1` bytes. A read error or end of stream ends the
/// line early; the caller answers what arrived.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    line: &mut Vec<u8>,
) -> Result<(), HeadTooLarge> {
    line.clear();
    let _ = reader.take(max as u64 + 1).read_until(b'\n', line);
    if line.len() > max {
        return Err(HeadTooLarge);
    }
    Ok(())
}

/// Answers one HTTP request whose request line has already been read: the
/// one endpoint table of [`MetricsServer`] and of daemons that mount its
/// endpoints on their own listener (`pimtc serve`).
///
/// The header block is read and discarded, at most `max_headers` bytes in
/// all; past that nothing is answered and [`HeadTooLarge`] comes back so
/// the caller can close the connection. Otherwise `GET /metrics` renders
/// `hub`'s registry, `GET /healthz` answers `healthz()`, `GET /trace`
/// answers `trace()` (an empty trace until one is published), any other
/// path is a 404 and any other method a 405.
pub fn serve_http<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    request_line: &str,
    max_headers: usize,
    hub: &MetricsHub,
    healthz: impl FnOnce() -> String,
    trace: impl FnOnce() -> Option<String>,
) -> Result<(), HeadTooLarge> {
    let mut budget = max_headers;
    let mut header = Vec::new();
    loop {
        read_head_line(reader, budget, &mut header)?;
        budget -= header.len();
        if header.trim_ascii().is_empty() {
            break;
        }
    }
    let (method, path) = parse_request_line(request_line);
    if method != "GET" {
        respond_http(
            writer,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return Ok(());
    }
    match path.as_str() {
        "/metrics" => respond_http(
            writer,
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &hub.render_prometheus(),
        ),
        "/healthz" => respond_http(writer, 200, "OK", "application/json", &healthz()),
        "/trace" => {
            let body = trace()
                .unwrap_or_else(|| "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}".to_string());
            respond_http(writer, 200, "OK", "application/json", &body);
        }
        _ => respond_http(
            writer,
            404,
            "Not Found",
            "text/plain",
            "endpoints: /metrics /healthz /trace\n",
        ),
    }
    Ok(())
}

/// Splits an HTTP request line into `(method, path)`, stripping any query
/// string from the path. Both come back empty on a malformed line.
fn parse_request_line(line: &str) -> (String, String) {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path).to_string();
    (method, path)
}

/// Writes one complete `Connection: close` HTTP/1.1 response. Errors are
/// swallowed: the peer hanging up mid-response is its own problem.
fn respond_http<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Validates Prometheus text exposition format: the in-tree lint used by
/// tests, the `pimtc prom-lint` subcommand, and CI's scrape-smoke job.
///
/// Checks, per line: `# TYPE` declarations are well formed, each family is
/// declared at most once, sample lines follow `name{labels} value` with
/// valid metric/label names and a parseable value, and — for families
/// declared `histogram` — each series' `le` buckets are cumulative
/// (non-decreasing), end in `+Inf`, and agree with the `_count` sample.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, labels-without-le) -> (bucket values in order, saw_inf)
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("line {n}: TYPE {name} without a kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE kind `{kind}`"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and comments
        }
        let (name, labels, value) =
            parse_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        if !valid_metric_name(&name) {
            return Err(format!("line {n}: invalid metric name `{name}`"));
        }
        let family = histogram_family(&name, &types);
        if let Some(family) = family {
            if name.ends_with("_bucket") {
                let mut le = None;
                let mut rest_labels: Vec<(String, String)> = Vec::new();
                for (k, v) in &labels {
                    if k == "le" {
                        le = Some(v.clone());
                    } else {
                        rest_labels.push((k.clone(), v.clone()));
                    }
                }
                let le = le.ok_or_else(|| format!("line {n}: `{name}` without an `le` label"))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {n}: bad le `{le}`"))?
                };
                let key = (family.clone(), label_string(&rest_labels));
                buckets.entry(key).or_default().push((bound, value));
            } else if name.ends_with("_count") {
                counts.insert((family.clone(), label_string(&labels)), value);
            }
        }
    }
    for ((family, labels), series) in &buckets {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_value = 0.0f64;
        let mut saw_inf = false;
        for (bound, value) in series {
            if *bound <= prev_bound {
                return Err(format!(
                    "histogram {family}{labels}: le buckets not strictly increasing"
                ));
            }
            if *value < prev_value {
                return Err(format!(
                    "histogram {family}{labels}: bucket values not cumulative"
                ));
            }
            prev_bound = *bound;
            prev_value = *value;
            if bound.is_infinite() {
                saw_inf = true;
            }
        }
        if !saw_inf {
            return Err(format!("histogram {family}{labels}: missing +Inf bucket"));
        }
        if let Some(count) = counts.get(&(family.clone(), labels.clone())) {
            if (*count - prev_value).abs() > 1e-9 {
                return Err(format!(
                    "histogram {family}{labels}: +Inf bucket {prev_value} != _count {count}"
                ));
            }
        }
    }
    Ok(())
}

/// Maps a sample name back to its histogram family when one is declared:
/// `x_bucket`/`x_sum`/`x_count` → `x` if `# TYPE x histogram` was seen.
fn histogram_family(
    name: &str,
    types: &std::collections::BTreeMap<String, String>,
) -> Option<String> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base.to_string());
            }
        }
    }
    None
}

fn label_string(labels: &[(String, String)]) -> String {
    let mut sorted = labels.to_vec();
    sorted.sort();
    let mut out = String::new();
    for (k, v) in sorted {
        out.push_str(&format!("{k}={v},"));
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A parsed sample: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parses one sample line into `(name, labels, value)`.
fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b' ' {
        i += 1;
    }
    let name = line[..i].to_string();
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            // label name
            let start = i;
            while i < bytes.len() && bytes[i] != b'=' && bytes[i] != b'}' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err("unterminated label block".into());
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            let key = line[start..i].trim().to_string();
            if !valid_label_name(&key) {
                return Err(format!("invalid label name `{key}`"));
            }
            i += 1; // '='
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err(format!("label `{key}` value is not quoted"));
            }
            i += 1;
            let mut value = String::new();
            loop {
                match bytes.get(i) {
                    None => return Err(format!("unterminated value for label `{key}`")),
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(b'\\') => {
                        match bytes.get(i + 1) {
                            Some(b'"') => value.push('"'),
                            Some(b'\\') => value.push('\\'),
                            Some(b'n') => value.push('\n'),
                            other => return Err(format!("bad escape {other:?} in label `{key}`")),
                        }
                        i += 2;
                    }
                    Some(&b) => {
                        value.push(b as char);
                        i += 1;
                    }
                }
            }
            labels.push((key, value));
            if bytes.get(i) == Some(&b',') {
                i += 1;
            } else if bytes.get(i) == Some(&b'}') {
                i += 1;
                break;
            } else {
                return Err("expected `,` or `}` in label block".into());
            }
        }
    }
    let rest = line[i..].trim();
    // An optional timestamp may follow the value; we emit none, but accept it.
    let mut it = rest.split_whitespace();
    let value_text = it.next().ok_or("sample line missing a value")?;
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("bad sample value `{v}`"))?,
    };
    if it.clone().count() > 1 {
        return Err("trailing garbage after sample value".into());
    }
    Ok((name, labels, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// `launch_hist` for a `count` launch over its live cores.
    fn count_hist(hub: &MetricsHub, cycles: &[u64], dma: &[u64]) {
        let dist = crate::LaunchDist::of(cycles);
        hub.launch_hist("count", "triangle_count", &dist, cycles, dma);
    }

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or("0")
            .parse()
            .unwrap_or(0);
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    fn serve() -> (Arc<MetricsHub>, MetricsServer) {
        let hub = Arc::new(MetricsHub::new());
        let health = Arc::new(HealthState::new());
        hub.add_sink(Box::new(HealthSink::new(Arc::clone(&health))));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&hub), health).expect("bind");
        (hub, server)
    }

    #[test]
    fn metrics_endpoint_serves_live_registry() {
        let (hub, mut server) = serve();
        hub.transfer("push", "setup", 4, 4096, 1e-6, true);
        let (status, body) = http_get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("pim_transfer_bytes_total 4096"), "{body}");
        lint_prometheus(&body).expect("scrape lints clean");
        // The scrape tracks the registry live.
        hub.transfer("push", "setup", 4, 4096, 1e-6, true);
        let (_, body2) = http_get(server.addr(), "/metrics");
        assert!(body2.contains("pim_transfer_bytes_total 8192"), "{body2}");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_phase_progress_and_anomalies() {
        let (hub, mut server) = serve();
        hub.phase_change("triangle_count");
        hub.chunk(crate::hub::ChunkObs {
            index: 0,
            edges: 250,
            offered: 200,
            kept: 150,
            routed_bytes: 1000,
            peak_routed_bytes: 1000,
            mg_summary: 3,
        });
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"phase\":\"triangle_count\""), "{body}");
        assert!(body.contains("\"edges_ingested\":250"), "{body}");
        assert!(body.contains("\"last_seq\":2"), "{body}");
        hub.anomaly("straggler", "count: max 9000 > 4x p50 1000");
        let (_, degraded) = http_get(server.addr(), "/healthz");
        assert!(degraded.contains("\"status\":\"degraded\""), "{degraded}");
        assert!(degraded.contains("\"anomaly_count\":1"), "{degraded}");
        assert!(degraded.contains("straggler"), "{degraded}");
        server.shutdown();
    }

    #[test]
    fn trace_endpoint_serves_pushed_snapshot_and_unknown_paths_404() {
        let (_hub, mut server) = serve();
        let (status, body) = http_get(server.addr(), "/trace");
        assert_eq!(status, 200);
        assert!(body.contains("\"traceEvents\":[]"), "{body}");
        server.update_trace("{\"traceEvents\":[{\"name\":\"kernel:count\"}]}".into());
        let (_, body) = http_get(server.addr(), "/trace");
        assert!(body.contains("kernel:count"), "{body}");
        let (status, _) = http_get(server.addr(), "/nope");
        assert_eq!(status, 404);
        server.shutdown();
        // Shutdown is idempotent.
        server.shutdown();
    }

    #[test]
    fn render_is_deterministic_under_concurrent_updates() {
        let (hub, mut server) = serve();
        let mut writers = Vec::new();
        for t in 0..4 {
            let hub = Arc::clone(&hub);
            writers.push(std::thread::spawn(move || {
                for i in 0..200 {
                    hub.transfer("push", "setup", 1, 64, 0.0, true);
                    count_hist(&hub, &[100 + i, 300], &[8, 8]);
                    let _ = t;
                }
            }));
        }
        // Scrape while writers hammer the registry: every snapshot must
        // parse and stay monotone in the counters.
        let mut last_bytes = 0u64;
        for _ in 0..10 {
            let (status, body) = http_get(server.addr(), "/metrics");
            assert_eq!(status, 200);
            lint_prometheus(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
            let bytes = body
                .lines()
                .find(|l| l.starts_with("pim_transfer_bytes_total "))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            assert!(bytes >= last_bytes, "counter went backwards");
            last_bytes = bytes;
        }
        for w in writers {
            w.join().unwrap();
        }
        let (_, final_body) = http_get(server.addr(), "/metrics");
        assert!(
            final_body.contains(&format!("pim_transfer_bytes_total {}", 4 * 200 * 64)),
            "{final_body}"
        );
        // Deterministic: two renders of a quiesced registry are identical.
        assert_eq!(hub.render_prometheus(), hub.render_prometheus());
        server.shutdown();
    }

    #[test]
    fn lint_accepts_our_renderer_and_rejects_corruption() {
        let hub = MetricsHub::new();
        hub.transfer("push", "setup", 1, 100, 0.0, true);
        count_hist(&hub, &[500, 1500, 999_999], &[10, 20, 30]);
        hub.anomaly("straggler", "x");
        lint_prometheus(&hub.render_prometheus()).expect("own render lints clean");

        assert!(lint_prometheus("# TYPE x bogus\n").is_err());
        assert!(lint_prometheus("# TYPE x counter\n# TYPE x counter\n").is_err());
        assert!(lint_prometheus("1bad_name 3\n").is_err());
        assert!(lint_prometheus("m{l=\"unterminated} 3\n").is_err());
        assert!(lint_prometheus("m not_a_number\n").is_err());
        // Histogram without +Inf.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n";
        assert!(lint_prometheus(no_inf).unwrap_err().contains("+Inf"));
        // Non-cumulative buckets.
        let non_cum =
            "# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n";
        assert!(lint_prometheus(non_cum).unwrap_err().contains("cumulative"));
        // +Inf disagrees with _count.
        let bad_count =
            "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 4\n";
        assert!(lint_prometheus(bad_count).unwrap_err().contains("_count"));
    }
}
