//! `serve-mixed`: many small tenants against an in-process
//! `pim_server::Server`, over real sockets.
//!
//! A closed loop: each connection runs tenants back to back, and each
//! tenant is create-session (C = 1–3, functional backend) → ten
//! append-edges of fresh simple edges → query-count → close. Every query
//! must come back exact with the host count of that tenant's edges.

use crate::layers::{run_metrics, CallKind, CallLog, Layers, Spans};
use crate::stats::{enough_setups, median, peak_rss_mb, percentile, tail, windowed_rate, Tally};
use crate::{derive_seed, Metric, Opts, Outcome};
use pim_graph::{CooGraph, Edge};
use pim_metrics::MetricsHub;
use pim_server::{ServeConfig, Server};
use pim_sim::{FunctionalBackend, PimBackend, PimConfig, RankCluster, TimedBackend};
use pim_tc::{ExecBackend, TcConfig, TcSession};
use serde_json::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants replayed in-process on the timed engine for `modeled_s`.
const MODELED_TENANTS: usize = 16;
/// Tenants replayed in-process for the per-verb execution times.
const EXEC_TENANTS: usize = 200;

/// The load's shape at full or `--quick` size.
struct Shape {
    connections: usize,
    appends: usize,
    edges_per_append: usize,
    /// Vertex ids per tenant graph: 2000 edges over 400 vertices give a
    /// few hundred triangles.
    nodes: u32,
}

impl Shape {
    fn new(quick: bool) -> Shape {
        Shape {
            connections: 2,
            appends: if quick { 3 } else { 10 },
            edges_per_append: 200,
            nodes: 400,
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        ranks: 4,
        pim: PimConfig {
            total_dpus: 96,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        },
        queue_depth: 16,
        workers: 2,
        max_frame: 1 << 20,
        drain_dir: None,
    }
}

/// The tenant's edge stream: `appends` batches of distinct, loop-free,
/// normalized edges, none repeated across batches.
fn tenant_batches(seed: u64, tenant: usize, shape: &Shape) -> Vec<Vec<Edge>> {
    let mut state = derive_seed(seed, 1000 + tenant as u64);
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(shape.appends * shape.edges_per_append);
    while edges.len() < shape.appends * shape.edges_per_append {
        state = pim_tc::host::splitmix64(state);
        let u = (state % shape.nodes as u64) as u32;
        let v = ((state >> 32) % shape.nodes as u64) as u32;
        let e = Edge::new(u, v).normalized();
        if u != v && seen.insert((e.u, e.v)) {
            edges.push(e);
        }
    }
    edges
        .chunks(shape.edges_per_append)
        .map(<[Edge]>::to_vec)
        .collect()
}

fn colors_of(tenant: usize) -> usize {
    1 + tenant % 3
}

/// Protocol verbs the benchmark times.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    Create,
    Append,
    Query,
    Close,
}

/// Verbs the per-layer report breaks out, in [`ServerLayer`] order.
const LAYER_VERBS: [&str; 3] = ["create", "append", "query"];

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one frame and waits for its reply; `None` on an I/O error or
    /// a reply that is not JSON.
    fn call(&mut self, frame: &str) -> Option<Value> {
        writeln!(self.writer, "{frame}").ok()?;
        let mut line = String::new();
        self.reader.read_line(&mut line).ok()?;
        serde_json::from_str_value(&line).ok()
    }
}

fn is_ok(v: &Option<Value>) -> bool {
    v.as_ref()
        .and_then(|v| v.get("ok"))
        .and_then(Value::as_bool)
        == Some(true)
}

fn edges_json(batch: &[Edge]) -> String {
    let pairs: Vec<String> = batch.iter().map(|e| format!("[{},{}]", e.u, e.v)).collect();
    format!("[{}]", pairs.join(","))
}

/// What one tenant's run left behind.
struct TenantRun {
    tenant: usize,
    /// The resolved configuration `create-session` echoed.
    config: Option<String>,
    /// Triangles the query reported.
    triangles: Option<u64>,
}

/// Per-connection results.
#[derive(Default)]
struct ConnLog {
    samples: Vec<(Verb, f64, Instant)>,
    tenants: Vec<TenantRun>,
    tally: Tally,
    /// `(completion time, edges appended)` of every append.
    appended: Vec<(Instant, u64)>,
}

/// Runs tenants `first`, `first + connections`, ... until `deadline`
/// (at least one).
fn drive(addr: SocketAddr, seed: u64, shape: &Shape, first: usize, deadline: Instant) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[tcbench] connect failed: {e}");
            log.tally.record(false);
            return log;
        }
    };
    let mut timed = |log: &mut ConnLog, verb: Verb, frame: &str| {
        let start = Instant::now();
        let reply = client.call(frame);
        log.samples
            .push((verb, start.elapsed().as_secs_f64(), start));
        log.tally.record(is_ok(&reply));
        reply
    };
    for i in 0.. {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let tenant = first + i * shape.connections;
        let frame = format!(
            r#"{{"op":"create-session","colors":{},"seed":{},"backend":"functional"}}"#,
            colors_of(tenant),
            derive_seed(seed, 5000 + tenant as u64) >> 1
        );
        let reply = timed(&mut log, Verb::Create, &frame);
        let mut run = TenantRun {
            tenant,
            config: None,
            triangles: None,
        };
        let Some(id) = reply
            .as_ref()
            .filter(|_| is_ok(&reply))
            .and_then(|v| v.get("session"))
            .and_then(Value::as_u64)
        else {
            log.tenants.push(run);
            continue;
        };
        run.config = reply
            .as_ref()
            .and_then(|v| v.get("config"))
            .and_then(|c| serde_json::to_string(c).ok());
        for batch in tenant_batches(seed, tenant, shape) {
            let frame = format!(
                r#"{{"op":"append-edges","session":{id},"edges":{}}}"#,
                edges_json(&batch)
            );
            let reply = timed(&mut log, Verb::Append, &frame);
            let appended = reply
                .as_ref()
                .and_then(|v| v.get("appended"))
                .and_then(Value::as_u64);
            if appended != Some(batch.len() as u64) && is_ok(&reply) {
                eprintln!("[tcbench] tenant {tenant}: append dropped edges: {appended:?}");
                log.tally.failed += 1;
            }
            log.appended.push((Instant::now(), appended.unwrap_or(0)));
        }
        let reply = timed(
            &mut log,
            Verb::Query,
            &format!(r#"{{"op":"query-count","session":{id}}}"#),
        );
        let exact = reply
            .as_ref()
            .and_then(|v| v.get("exact"))
            .and_then(Value::as_bool);
        if is_ok(&reply) && exact != Some(true) {
            eprintln!("[tcbench] tenant {tenant}: query not exact");
            log.tally.failed += 1;
        }
        run.triangles = reply
            .as_ref()
            .and_then(|v| v.get("triangles"))
            .and_then(Value::as_u64);
        timed(
            &mut log,
            Verb::Close,
            &format!(r#"{{"op":"close","session":{id}}}"#),
        );
        log.tenants.push(run);
    }
    log
}

/// One timed set-up: `Server::start` until the first `ping` reply.
fn time_setup() -> Result<(f64, Server), String> {
    let start = Instant::now();
    let server = Server::start("127.0.0.1:0", serve_config())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let reply = client.call(r#"{"op":"ping"}"#);
    let elapsed = start.elapsed().as_secs_f64();
    if !is_ok(&reply) {
        return Err(format!("ping failed: {reply:?}"));
    }
    Ok((elapsed, server))
}

/// `GET /metrics` on the server's own listener, as `name → value`.
fn scrape(addr: SocketAddr) -> std::io::Result<Vec<(String, f64)>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn scraped(series: &[(String, f64)], name: &str) -> f64 {
    series
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The server's per-layer numbers. Workloads that serve nothing report
/// the all-zero default.
#[derive(Default)]
pub struct ServerLayer {
    /// Client-side latencies of create, append and query, ms, ascending.
    latencies: [Vec<f64>; 3],
    /// Median in-process execution time of the same verbs, ms.
    exec_ms: [f64; 3],
    admitted: f64,
    rejected: f64,
    frames_rejected: f64,
}

impl ServerLayer {
    /// The `server.*` metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        for (name, sorted) in LAYER_VERBS.iter().zip(&self.latencies) {
            let t = tail(sorted);
            m.extend([
                Metric::new(
                    &format!("server.{name}.p50_ms"),
                    percentile(sorted, 50.0),
                    "ms",
                ),
                Metric::new(
                    &format!("server.{name}.tail_ms"),
                    t.map_or(0.0, |t| t.value),
                    "ms",
                ),
                Metric::new(
                    &format!("server.{name}.tail_pct"),
                    t.map_or(0.0, |t| t.pct),
                    "pct",
                ),
                Metric::new(
                    &format!("server.{name}.samples"),
                    sorted.len() as f64,
                    "count",
                ),
            ]);
        }
        for (name, exec) in LAYER_VERBS.iter().zip(self.exec_ms) {
            m.push(Metric::new(&format!("server.{name}.exec_ms"), exec, "ms"));
        }
        // What the socket, queue and worker hand-off add to execution.
        for i in [1, 2] {
            let overhead = if self.latencies[i].is_empty() {
                0.0
            } else {
                percentile(&self.latencies[i], 50.0) - self.exec_ms[i]
            };
            m.push(Metric::new(
                &format!("server.{}.overhead_ms", LAYER_VERBS[i]),
                overhead,
                "ms",
            ));
        }
        m.extend([
            Metric::new("server.admitted", self.admitted, "count"),
            Metric::new("server.rejected", self.rejected, "count"),
            Metric::new("server.frames_rejected", self.frames_rejected, "count"),
        ]);
        m
    }
}

/// Per-verb wall times of an in-process replay of one tenant.
struct Replay {
    create: f64,
    appends: Vec<f64>,
    query: f64,
    modeled_s: f64,
    triangles: u64,
}

/// Replays a tenant in-process from its echoed configuration, on engine
/// `B`. The session is metered, as the server's sessions are.
fn replay<B: PimBackend>(
    config: &TcConfig,
    batches: &[Vec<Edge>],
    trace: Option<(&mut Layers, &mut Spans, u64)>,
) -> Result<Replay, String> {
    let hub = Arc::new(MetricsHub::new());
    let mut log = CallLog::new(&hub, trace.is_some());
    let (session, create) = log.time(CallKind::Start, || {
        TcSession::<RankCluster<B>>::start_cluster_metered(config, Some(hub))
    });
    let mut session = session.map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for batch in batches {
        let (appended, secs) = log.time(CallKind::Append, || session.append(batch));
        appended.map_err(|e| e.to_string())?;
        appends.push(secs);
    }
    let (result, query) = log.time(CallKind::Count, || session.count());
    let result = result.map_err(|e| e.to_string())?;
    if let Some((layers, spans, parent)) = trace {
        log.record_into(layers, spans, parent);
    }
    Ok(Replay {
        create,
        appends,
        query,
        modeled_s: log.modeled_s(),
        triangles: result.rounded(),
    })
}

/// Replays the first `limit` created tenants in-process on `backend`
/// from the configuration each `create-session` echoed, checking that
/// every replay reaches the served count (counts are identical across
/// engines). With `trace`, each replay is a rep under the given root span.
fn replay_tenants(
    tenants: &[TenantRun],
    limit: usize,
    backend: ExecBackend,
    seed: u64,
    shape: &Shape,
    tally: &mut Tally,
    mut trace: Option<(&mut Layers, &mut Spans, u64)>,
) -> Vec<Replay> {
    let mut out = Vec::new();
    for t in tenants.iter().filter(|t| t.config.is_some()).take(limit) {
        let parsed: Result<TcConfig, _> = serde_json::from_str(t.config.as_deref().unwrap_or(""));
        let rep_trace = trace.as_mut().map(|(layers, spans, root)| {
            let now = Instant::now();
            let id = spans.push(*root, &format!("replay-tenant-{}", t.tenant), now, now);
            (&mut **layers, &mut **spans, id)
        });
        let rep_span = rep_trace.as_ref().map(|t| t.2);
        let result = parsed.map_err(|e| e.to_string()).and_then(|mut config| {
            config.backend = backend;
            let batches = tenant_batches(seed, t.tenant, shape);
            match backend {
                ExecBackend::Timed => replay::<TimedBackend>(&config, &batches, rep_trace),
                ExecBackend::Functional => {
                    replay::<FunctionalBackend>(&config, &batches, rep_trace)
                }
            }
        });
        if let (Some((_, spans, _)), Some(id)) = (trace.as_mut(), rep_span) {
            spans.end(id, Instant::now());
        }
        match result {
            Ok(r) if Some(r.triangles) == t.triangles => out.push(r),
            Ok(r) => {
                eprintln!(
                    "[tcbench] tenant {}: replay counts {} but the server said {:?}",
                    t.tenant, r.triangles, t.triangles
                );
                tally.record(false);
            }
            Err(e) => {
                eprintln!("[tcbench] tenant {}: replay failed: {e}", t.tenant);
                tally.record(false);
            }
        }
    }
    out
}

/// Runs the closed loop for `opts.seconds` (at least one tenant per
/// connection).
pub fn run(opts: &Opts) -> Outcome {
    let shape = Shape::new(opts.quick);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut server = None;
    // The last set-up's server carries the load.
    while !enough_setups(&setups) {
        match time_setup() {
            Ok((secs, s)) => {
                setups.push(secs);
                server = Some(s);
            }
            Err(e) => {
                eprintln!("[tcbench] server set-up failed: {e}");
                tally.record(false);
                break;
            }
        }
    }
    let Some(server) = server else {
        return Outcome {
            tally,
            metrics: Vec::new(),
        };
    };
    let addr = server.addr();

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(opts.seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.connections)
            .map(|c| {
                let shape = &shape;
                scope.spawn(move || drive(addr, opts.seed, shape, c, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_end = Instant::now();
    let series = scrape(addr).unwrap_or_else(|e| {
        eprintln!("[tcbench] /metrics scrape failed: {e}");
        Vec::new()
    });
    drop(server);

    let mut samples: Vec<(Verb, f64, Instant)> = Vec::new();
    let mut tenants: Vec<TenantRun> = Vec::new();
    let mut appended: Vec<(f64, f64)> = Vec::new();
    for log in logs {
        tally.absorb(log.tally);
        samples.extend(log.samples);
        tenants.extend(log.tenants);
        appended.extend(
            log.appended
                .iter()
                .map(|&(at, n)| (at.duration_since(origin).as_secs_f64(), n as f64)),
        );
    }
    tenants.sort_by_key(|t| t.tenant);

    // Check every reported count against the host count of the tenant's
    // edges, after the timed loop.
    for t in &tenants {
        let Some(triangles) = t.triangles else {
            continue;
        };
        let g = CooGraph::from_edges(tenant_batches(opts.seed, t.tenant, &shape).concat());
        let truth = pim_baselines::cpu_count(&g).triangles;
        if triangles != truth {
            eprintln!(
                "[tcbench] tenant {}: {triangles} triangles, host says {truth}",
                t.tenant
            );
            tally.failed += 1;
        }
    }
    let created = tenants.iter().filter(|t| t.config.is_some()).count() as f64;
    let mut layer = ServerLayer {
        admitted: scraped(&series, "pim_serve_admitted_total"),
        rejected: scraped(&series, "pim_serve_rejected_total"),
        frames_rejected: scraped(&series, "pim_serve_frames_rejected_total"),
        ..ServerLayer::default()
    };
    if layer.admitted != created || layer.rejected != 0.0 || layer.frames_rejected != 0.0 {
        eprintln!(
            "[tcbench] server counters disagree: admitted {} of {created}, rejected {}, \
             frames rejected {}",
            layer.admitted, layer.rejected, layer.frames_rejected
        );
        tally.record(false);
    }
    let latencies = |verb: Option<Verb>| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| verb.is_none_or(|want| s.0 == want))
            .map(|s| s.1 * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };

    if !opts.trace {
        let modeled: Vec<f64> = replay_tenants(
            &tenants,
            MODELED_TENANTS,
            ExecBackend::Timed,
            opts.seed,
            &shape,
            &mut tally,
            None,
        )
        .iter()
        .map(|r| r.modeled_s)
        .collect();
        let loop_s = loop_end.duration_since(origin).as_secs_f64();
        let metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new(
                "edges_per_s",
                windowed_rate(&appended, 1.0, loop_s),
                "edges/s",
            ),
            Metric::new("op_p50_ms", percentile(&latencies(None), 50.0), "ms"),
            Metric::new("modeled_s", median(&modeled), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        return Outcome { tally, metrics };
    }

    let mut layers = Layers::default();
    let mut spans = Spans::new(origin);
    let root = spans.push(0, "serve-mixed", origin, loop_end);
    for &(verb, secs, start) in &samples {
        let name = match verb {
            Verb::Create => "create-session",
            Verb::Append => "append-edges",
            Verb::Query => "query-count",
            Verb::Close => "close",
        };
        spans.push(root, name, start, start + Duration::from_secs_f64(secs));
    }
    let exec = replay_tenants(
        &tenants,
        EXEC_TENANTS,
        ExecBackend::Functional,
        opts.seed,
        &shape,
        &mut tally,
        Some((&mut layers, &mut spans, root)),
    );
    let exec_ms =
        |f: fn(&Replay) -> Vec<f64>| median(&exec.iter().flat_map(f).collect::<Vec<_>>()) * 1e3;
    layer.latencies = [
        latencies(Some(Verb::Create)),
        latencies(Some(Verb::Append)),
        latencies(Some(Verb::Query)),
    ];
    layer.exec_ms = [
        exec_ms(|r| vec![r.create]),
        exec_ms(|r| r.appends.clone()),
        exec_ms(|r| vec![r.query]),
    ];
    let mut metrics = layers.metrics(exec.len() as f64);
    // The client loop records the same samples traced or not, so tracing
    // costs it nothing.
    metrics.extend(run_metrics(0.0, 0.0, 0.0));
    metrics.extend(layer.metrics());
    if let Err(e) = spans.write(&opts.spans_path("serve-mixed")) {
        eprintln!("[tcbench] cannot write spans: {e}");
    }
    Outcome { tally, metrics }
}
