//! The `pimtc serve` daemon: one listener, many tenants.
//!
//! [`Server::start`] binds a std `TcpListener` and owns one simulated PIM
//! machine, modeled as `ranks × rank_dpus` cores. Tenants arrive over the
//! line-delimited JSON protocol ([`crate::protocol`]); each admitted
//! `create-session` leases a disjoint block of cores per rank
//! ([`crate::scheduler`]) and runs its own `TcSession` over a
//! `RankCluster` sized to exactly that lease, so tenants can never touch
//! each other's banks.
//!
//! Concurrency model — per-session serialization under a global fair
//! share:
//!
//! * every session has a bounded op queue (`queue_depth`); a connection
//!   thread pushing into a full queue blocks — that is the append
//!   backpressure the protocol promises;
//! * a session is in the global ready ring at most once (`queued` flag),
//!   so at most one worker ever executes ops for a given session — ops
//!   apply in submission order, which keeps multi-tenant streams
//!   bit-identical to isolated single-tenant runs;
//! * workers pull sessions round-robin from the ready ring and execute
//!   **one** op per turn, so a tenant streaming millions of edges cannot
//!   starve a neighbor's `query-count`.
//!
//! The same listener answers plain HTTP `GET`s (`/metrics`, `/healthz`,
//! `/trace`) with the `pim-metrics` endpoint table
//! ([`pim_metrics::serve_http`]): `/metrics` renders the server hub's
//! `pim_serve_*` series, `/healthz` is a per-session document (phase,
//! sequence watermark, queue depth, and anomalies for every live
//! tenant), and the header block shares the frame cap.
//!
//! Drain ([`Server::begin_drain`] + [`Server::finish`], the SIGTERM path)
//! stops admitting, lets every queue run dry, checkpoints each live
//! session to `drain_dir/session-<id>/` in the PR 8 `PIMTCKPT` format,
//! and only then stops the workers.

use crate::admission::AdmissionController;
use crate::protocol::{
    error_response, ok_response, parse_request, ErrorCode, Request, SessionSpec, DEFAULT_MAX_FRAME,
};
use crate::scheduler::Lease;
use pim_graph::Edge;
use pim_metrics::{serve_http, HealthSink, HealthState, MetricsHub, Watchdog, WatchdogConfig};
use pim_sim::{FaultPlan, FunctionalBackend, PimConfig, RankCluster, TimedBackend};
use pim_tc::{ExecBackend, TcConfig, TcError, TcResult, TcSession};
use serde_json::{json, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// How a machine is carved up and how the daemon schedules over it.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ranks in the simulated machine.
    pub ranks: u32,
    /// Per-rank machine shape; `pim.total_dpus` is the cores **per rank**
    /// (each admitted session gets a slice of it via
    /// [`PimConfig::with_dpus`]).
    pub pim: PimConfig,
    /// Bound on each session's op queue; a full queue blocks the
    /// submitting connection (append backpressure).
    pub queue_depth: usize,
    /// Worker threads executing session ops.
    pub workers: usize,
    /// Cap on one request line, and on the header block of an HTTP
    /// request, bytes.
    pub max_frame: usize,
    /// Where drain (and dir-less `checkpoint` ops) persist session
    /// snapshots; `None` disables both.
    pub drain_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ranks: 2,
            pim: PimConfig::default(),
            queue_depth: 32,
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            drain_dir: None,
        }
    }
}

/// What a completed drain did, for exit-status decisions (`--watchdog-fail`).
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// Sessions still live when the drain began.
    pub sessions: usize,
    /// `(session id, checkpoint path)` for every snapshot persisted.
    pub checkpointed: Vec<(u64, PathBuf)>,
    /// Watchdog anomalies raised across all sessions over their lifetime.
    pub anomalies: u64,
}

/// One tenant's session engine, generic over the execution backend the
/// tenant asked for.
enum SessionEngine {
    /// Cycle-accurate engine.
    Timed(TcSession<RankCluster<TimedBackend>>),
    /// Functional engine (same counts, zero clocks).
    Functional(TcSession<RankCluster<FunctionalBackend>>),
}

impl SessionEngine {
    fn start(config: &TcConfig, hub: Arc<MetricsHub>) -> Result<SessionEngine, TcError> {
        match config.backend {
            ExecBackend::Timed => Ok(SessionEngine::Timed(TcSession::start_cluster_metered(
                config,
                Some(hub),
            )?)),
            ExecBackend::Functional => Ok(SessionEngine::Functional(
                TcSession::start_cluster_metered(config, Some(hub))?,
            )),
        }
    }

    fn append(&mut self, edges: &[Edge]) -> Result<(), TcError> {
        match self {
            SessionEngine::Timed(s) => s.append(edges),
            SessionEngine::Functional(s) => s.append(edges),
        }
    }

    fn count(&mut self) -> Result<TcResult, TcError> {
        match self {
            SessionEngine::Timed(s) => s.count(),
            SessionEngine::Functional(s) => s.count(),
        }
    }

    fn checkpoint(&self, watermark: u64) -> Result<pim_tc::SessionCheckpoint, TcError> {
        match self {
            SessionEngine::Timed(s) => s.checkpoint(watermark),
            SessionEngine::Functional(s) => s.checkpoint(watermark),
        }
    }
}

/// An op queued on a session, plus the channel its response goes back on.
struct OpEnvelope {
    op: Op,
    reply: mpsc::Sender<String>,
}

enum Op {
    Append(Vec<Edge>),
    Count,
    Checkpoint(Option<PathBuf>),
    Close,
}

/// One admitted tenant.
struct Tenant {
    id: u64,
    /// The engine; `None` once closed. Only the single worker holding the
    /// session's ready-ring slot executes against it.
    engine: Mutex<Option<SessionEngine>>,
    queue: Mutex<VecDeque<OpEnvelope>>,
    /// Signaled when queue space frees up (backpressure wakeup).
    space: Condvar,
    /// True while the session sits in the ready ring (or a worker holds
    /// its turn) — the "at most one worker per session" latch.
    queued: AtomicBool,
    closed: AtomicBool,
    /// Ops applied — the session's sequence watermark.
    seq: AtomicU64,
    /// Edges appended after dedup.
    edges: AtomicU64,
    /// Dedup set mirroring host preprocessing: normalized, loop-free,
    /// first occurrence wins.
    seen: Mutex<HashSet<(u32, u32)>>,
    leases: Vec<Lease>,
    health: Arc<HealthState>,
    watchdog: Mutex<Watchdog>,
}

/// Shared server state: admission, sessions, the ready ring, drain flags.
struct ServerState {
    cfg: ServeConfig,
    hub: Arc<MetricsHub>,
    admission: AdmissionController,
    sessions: Mutex<HashMap<u64, Arc<Tenant>>>,
    next_session: AtomicU64,
    ready: Mutex<VecDeque<Arc<Tenant>>>,
    ready_cv: Condvar,
    /// No new sessions/ops; connections wind down.
    draining: AtomicBool,
    /// Workers and connection threads exit.
    stop: AtomicBool,
    /// Wakes `wait_drain` when a `shutdown` frame (or signal handler)
    /// requests a drain.
    drain_gate: Mutex<()>,
    drain_cv: Condvar,
}

impl ServerState {
    fn metric(&self, name: &str) -> pim_metrics::Counter {
        self.hub.registry().counter(name)
    }

    fn sessions_gauge(&self) -> pim_metrics::Gauge {
        self.hub.registry().gauge("pim_serve_sessions_active")
    }
}

/// The daemon handle: owns the listener, workers, and connection threads.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts the accept loop
    /// plus `cfg.workers` op workers.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;
        let hub = Arc::new(MetricsHub::new());
        let registry = hub.registry();
        registry.describe("pim_serve_sessions_active", "Live sessions");
        registry.describe("pim_serve_admitted_total", "Sessions admitted");
        registry.describe("pim_serve_rejected_total", "Sessions rejected by admission");
        registry.describe("pim_serve_ops_total", "Protocol ops applied");
        registry.describe(
            "pim_serve_frames_rejected_total",
            "Frames refused (malformed or oversized)",
        );
        let workers_n = cfg.workers.max(1);
        let state = Arc::new(ServerState {
            admission: AdmissionController::new(cfg.ranks, cfg.pim.total_dpus),
            cfg,
            hub,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            drain_gate: Mutex::new(()),
            drain_cv: Condvar::new(),
        });
        state.sessions_gauge().set(0.0);

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let state = Arc::clone(&state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pim-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }

        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_state = Arc::clone(&state);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("pim-serve-accept".into())
            .spawn(move || {
                while !accept_state.stop.load(Ordering::SeqCst)
                    && !accept_state.draining.load(Ordering::SeqCst)
                {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let state = Arc::clone(&accept_state);
                            if let Ok(h) = std::thread::Builder::new()
                                .name("pim-serve-conn".into())
                                .spawn(move || handle_connection(&state, stream))
                            {
                                accept_conns.lock().expect("conns poisoned").push(h);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
            .map_err(|e| format!("cannot spawn accept loop: {e}"))?;

        Ok(Server {
            addr: local,
            state,
            accept: Some(accept),
            workers,
            conns,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-wide metrics hub backing `GET /metrics`.
    pub fn hub(&self) -> Arc<MetricsHub> {
        Arc::clone(&self.state.hub)
    }

    /// Audits the lease ledger's disjointness invariant (test hook).
    pub fn check_lease_invariants(&self) -> Result<(), String> {
        self.state.admission.check_invariants()
    }

    /// Every outstanding DPU lease (test hook).
    pub fn leases(&self) -> Vec<Lease> {
        self.state.admission.leases()
    }

    /// True once a drain has been requested (by [`Server::begin_drain`],
    /// a `shutdown` frame, or the CLI's signal handler).
    pub fn draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Blocks until a drain is requested or `poll` returns true (checked
    /// every ~100 ms; the CLI passes its SIGTERM flag here).
    pub fn wait_drain(&self, poll: impl Fn() -> bool) {
        let mut gate = self.state.drain_gate.lock().expect("drain gate poisoned");
        while !self.draining() && !poll() {
            let (guard, _t) = self
                .state
                .drain_cv
                .wait_timeout(gate, Duration::from_millis(100))
                .expect("drain gate poisoned");
            gate = guard;
        }
    }

    /// Requests a drain: stop admitting sessions and ops. Idempotent;
    /// `finish` completes the shutdown.
    pub fn begin_drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.drain_cv.notify_all();
    }

    /// Completes a graceful shutdown: waits for every session queue to
    /// run dry, checkpoints each live session into
    /// `drain_dir/session-<id>/`, then stops workers and connection
    /// threads. Also run on drop (without the report).
    pub fn finish(&mut self) -> DrainReport {
        self.begin_drain();
        // Let every queued op apply.
        loop {
            let busy = {
                let sessions = self.state.sessions.lock().expect("sessions poisoned");
                sessions.values().any(|t| {
                    !t.queue.lock().expect("queue poisoned").is_empty()
                        || t.queued.load(Ordering::SeqCst)
                })
            };
            if !busy {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Checkpoint the survivors.
        let mut report = DrainReport::default();
        let tenants: Vec<Arc<Tenant>> = {
            let sessions = self.state.sessions.lock().expect("sessions poisoned");
            sessions.values().cloned().collect()
        };
        report.sessions = tenants.len();
        for tenant in &tenants {
            report.anomalies += tenant.health.anomaly_count();
            if let Some(dir) = &self.state.cfg.drain_dir {
                let engine = tenant.engine.lock().expect("engine poisoned");
                if let Some(engine) = engine.as_ref() {
                    let dest = dir.join(format!("session-{}", tenant.id));
                    let saved = std::fs::create_dir_all(&dest)
                        .map_err(|e| TcError::Checkpoint(format!("{}: {e}", dest.display())))
                        .and_then(|()| engine.checkpoint(tenant.seq.load(Ordering::SeqCst)))
                        .and_then(|snap| snap.save(&dest));
                    match saved {
                        Ok(path) => report.checkpointed.push((tenant.id, path)),
                        Err(e) => eprintln!("drain: session {}: {e}", tenant.id),
                    }
                }
            }
        }
        // Stop the machinery.
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.ready_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns: Vec<_> = self
            .conns
            .lock()
            .expect("conns poisoned")
            .drain(..)
            .collect();
        for c in conns {
            let _ = c.join();
        }
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.finish();
        }
    }
}

/// One worker: pull a session from the ready ring, run one op, requeue.
fn worker_loop(state: &ServerState) {
    loop {
        let tenant = {
            let mut ready = state.ready.lock().expect("ready poisoned");
            loop {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t) = ready.pop_front() {
                    break t;
                }
                let (guard, _t) = state
                    .ready_cv
                    .wait_timeout(ready, Duration::from_millis(100))
                    .expect("ready poisoned");
                ready = guard;
            }
        };
        let envelope = {
            let mut queue = tenant.queue.lock().expect("queue poisoned");
            let envelope = queue.pop_front();
            // Space freed: wake one backpressured submitter.
            tenant.space.notify_all();
            envelope
        };
        if let Some(envelope) = envelope {
            let response = execute_op(state, &tenant, envelope.op);
            let _ = envelope.reply.send(response);
        }
        // Hand the turn back. Re-check the queue afterwards: a submitter
        // racing between our pop and this store must not strand its op
        // with no worker scheduled.
        tenant.queued.store(false, Ordering::SeqCst);
        let nonempty = !tenant.queue.lock().expect("queue poisoned").is_empty();
        if nonempty && !tenant.queued.swap(true, Ordering::SeqCst) {
            state
                .ready
                .lock()
                .expect("ready poisoned")
                .push_back(Arc::clone(&tenant));
            state.ready_cv.notify_one();
        }
    }
}

/// Applies one op to a session (the caller holds the session's turn).
fn execute_op(state: &ServerState, tenant: &Arc<Tenant>, op: Op) -> String {
    let mut engine = tenant.engine.lock().expect("engine poisoned");
    let Some(live) = engine.as_mut() else {
        return error_response(
            ErrorCode::SessionClosed,
            &format!("session {} is closed", tenant.id),
        );
    };
    state.metric("pim_serve_ops_total").inc();
    let response = match op {
        Op::Append(edges) => match live.append(&edges) {
            Ok(()) => {
                let seq = tenant.seq.fetch_add(1, Ordering::SeqCst) + 1;
                let total = tenant.edges.fetch_add(edges.len() as u64, Ordering::SeqCst)
                    + edges.len() as u64;
                ok_response(
                    "append-edges",
                    json!({
                        "session": tenant.id,
                        "appended": edges.len(),
                        "edges_total": total,
                        "seq": seq,
                    }),
                )
            }
            Err(e) => engine_error(&e),
        },
        Op::Count => match live.count() {
            Ok(result) => {
                let seq = tenant.seq.fetch_add(1, Ordering::SeqCst) + 1;
                ok_response(
                    "query-count",
                    json!({
                        "session": tenant.id,
                        "triangles": result.rounded(),
                        "estimate": result.estimate,
                        "estimate_bits": result.estimate.to_bits(),
                        "exact": result.exact,
                        "nr_dpus": result.nr_dpus,
                        "max_dpu_load": result.max_dpu_load,
                        "seq": seq,
                    }),
                )
            }
            Err(e) => engine_error(&e),
        },
        Op::Checkpoint(dir) => {
            let dest = dir.or_else(|| {
                state
                    .cfg
                    .drain_dir
                    .as_ref()
                    .map(|d| d.join(format!("session-{}", tenant.id)))
            });
            let Some(dest) = dest else {
                return error_response(
                    ErrorCode::Checkpoint,
                    "no destination: pass \"dir\" or start the server with a drain dir",
                );
            };
            let watermark = tenant.seq.load(Ordering::SeqCst);
            let saved = std::fs::create_dir_all(&dest)
                .map_err(|e| TcError::Checkpoint(format!("{}: {e}", dest.display())))
                .and_then(|()| live.checkpoint(watermark))
                .and_then(|snap| snap.save(&dest));
            match saved {
                Ok(path) => ok_response(
                    "checkpoint",
                    json!({
                        "session": tenant.id,
                        "path": path.display().to_string(),
                        "watermark": watermark,
                    }),
                ),
                Err(e) => error_response(ErrorCode::Checkpoint, &e.to_string()),
            }
        }
        Op::Close => {
            *engine = None;
            tenant.closed.store(true, Ordering::SeqCst);
            state.admission.release(tenant.id);
            let mut sessions = state.sessions.lock().expect("sessions poisoned");
            sessions.remove(&tenant.id);
            state.sessions_gauge().set(sessions.len() as f64);
            return ok_response("close", json!({ "session": tenant.id }));
        }
    };
    // A watchdog pass between ops, like the CLI's dynamic loop: anomalies
    // land on the session's health doc (and /healthz).
    let _ = tenant.watchdog.lock().expect("watchdog poisoned").check();
    response
}

fn engine_error(e: &TcError) -> String {
    let code = match e {
        TcError::Config(_) => ErrorCode::BadRequest,
        TcError::Checkpoint(_) => ErrorCode::Checkpoint,
        _ => ErrorCode::Faulted,
    };
    error_response(code, &e.to_string())
}

/// Queues `op` on `tenant`, blocking while the queue is full
/// (backpressure). Returns the channel the response arrives on.
fn submit(
    state: &ServerState,
    tenant: &Arc<Tenant>,
    op: Op,
) -> Result<mpsc::Receiver<String>, (ErrorCode, String)> {
    if tenant.closed.load(Ordering::SeqCst) {
        return Err((
            ErrorCode::SessionClosed,
            format!("session {} is closed", tenant.id),
        ));
    }
    let (reply, rx) = mpsc::channel();
    {
        let mut queue = tenant.queue.lock().expect("queue poisoned");
        while queue.len() >= state.cfg.queue_depth {
            if state.stop.load(Ordering::SeqCst) {
                return Err((ErrorCode::Draining, "server is shutting down".into()));
            }
            let (guard, _t) = tenant
                .space
                .wait_timeout(queue, Duration::from_millis(50))
                .expect("queue poisoned");
            queue = guard;
        }
        queue.push_back(OpEnvelope { op, reply });
    }
    if !tenant.queued.swap(true, Ordering::SeqCst) {
        state
            .ready
            .lock()
            .expect("ready poisoned")
            .push_back(Arc::clone(tenant));
        state.ready_cv.notify_one();
    }
    Ok(rx)
}

/// Reads one newline-terminated frame, enforcing the frame cap.
enum FrameRead {
    Line(String),
    /// Peer went away (EOF, possibly mid-frame) or the server stopped.
    Gone,
    TooLarge,
}

fn read_frame(reader: &mut BufReader<TcpStream>, max: usize, state: &ServerState) -> FrameRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let budget = (max + 1).saturating_sub(buf.len()) as u64;
        let mut limited = Read::by_ref(reader).take(budget);
        match limited.read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return FrameRead::Gone,
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    return match String::from_utf8(buf) {
                        Ok(line) => FrameRead::Line(line),
                        // Not UTF-8, so not JSON: answered as a bad request.
                        Err(_) => FrameRead::Line("\u{FFFD}".into()),
                    };
                }
                if buf.len() > max {
                    return FrameRead::TooLarge;
                }
                // Partial line at EOF: a mid-stream disconnect. Drop it.
                return FrameRead::Gone;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.stop.load(Ordering::SeqCst) {
                    return FrameRead::Gone;
                }
            }
            Err(_) => return FrameRead::Gone,
        }
    }
}

/// One connection: frames in, frames out, until EOF or shutdown. The
/// first line decides the dialect — an HTTP request line is routed to the
/// metrics endpoints; anything else is protocol JSON.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // Request/response frames are small; without NODELAY, Nagle plus
    // delayed ACKs adds tens of milliseconds per op.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_frame(&mut reader, state.cfg.max_frame, state) {
            FrameRead::Gone => return,
            FrameRead::TooLarge => {
                state.metric("pim_serve_frames_rejected_total").inc();
                let msg = format!(
                    "request line exceeds the {}-byte frame cap; closing",
                    state.cfg.max_frame
                );
                let _ = writeln!(writer, "{}", error_response(ErrorCode::FrameTooLarge, &msg));
                return;
            }
            FrameRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                if is_http_request_line(&line) {
                    // The header block shares the protocol's frame cap; an
                    // over-long one is refused like an over-long frame.
                    let answered = serve_http(
                        &mut reader,
                        &mut writer,
                        &line,
                        state.cfg.max_frame,
                        &state.hub,
                        || render_healthz(state),
                        || None,
                    );
                    if answered.is_err() {
                        state.metric("pim_serve_frames_rejected_total").inc();
                    }
                    return;
                }
                let response = handle_frame(state, &line);
                if writeln!(writer, "{response}").is_err() {
                    return;
                }
            }
        }
    }
}

/// `GET /healthz HTTP/1.1` — method token, path, `HTTP/` version tag.
fn is_http_request_line(line: &str) -> bool {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let _path = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    version.starts_with("HTTP/")
        && matches!(
            method,
            "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS" | "PATCH"
        )
}

/// A lease as a session's own documents show it: no session id.
fn lease_json(l: &Lease) -> Value {
    json!({ "rank": l.rank, "start": l.start, "len": l.len })
}

/// The per-session `/healthz` document.
fn render_healthz(state: &ServerState) -> String {
    let sessions: Vec<Arc<Tenant>> = {
        let map = state.sessions.lock().expect("sessions poisoned");
        let mut v: Vec<Arc<Tenant>> = map.values().cloned().collect();
        v.sort_by_key(|t| t.id);
        v
    };
    let draining = state.draining.load(Ordering::SeqCst);
    let anomalies: u64 = sessions.iter().map(|t| t.health.anomaly_count()).sum();
    let status = if draining {
        "draining"
    } else if anomalies > 0 {
        "degraded"
    } else {
        "ok"
    };
    let session_docs: Vec<Value> = sessions
        .iter()
        .map(|t| {
            json!({
                "id": t.id,
                "phase": t.health.phase(),
                "seq": t.seq.load(Ordering::SeqCst),
                "last_seq": t.health.last_seq(),
                "queue_depth": t.queue.lock().expect("queue poisoned").len(),
                "edges": t.edges.load(Ordering::SeqCst),
                "anomaly_count": t.health.anomaly_count(),
                "leases": t.leases.iter().map(lease_json).collect::<Vec<_>>(),
            })
        })
        .collect();
    let doc = json!({
        "status": status,
        "draining": draining,
        "sessions_active": sessions.len(),
        "admitted": state.admission.admitted(),
        "rejected": state.admission.rejected(),
        "leased_dpus": state.admission.leased_dpus(),
        "total_dpus": state.admission.total_dpus(),
        "anomaly_count": anomalies,
        "sessions": session_docs,
    });
    serde_json::to_string(&doc).expect("a value tree always renders")
}

/// Dispatches one protocol frame to a response frame.
fn handle_frame(state: &Arc<ServerState>, line: &str) -> String {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err((code, message)) => {
            state.metric("pim_serve_frames_rejected_total").inc();
            return error_response(code, &message);
        }
    };
    match request {
        Request::Ping => ok_response("ping", json!({})),
        Request::Stats => render_stats(state),
        Request::Shutdown => {
            state.draining.store(true, Ordering::SeqCst);
            state.drain_cv.notify_all();
            ok_response("shutdown", json!({ "draining": true }))
        }
        Request::CreateSession(spec) => create_session(state, &spec),
        Request::AppendEdges { session, edges } => {
            let Some(tenant) = lookup(state, session) else {
                return unknown_session(session);
            };
            // Mirror host preprocessing: normalize, drop self-loops,
            // first occurrence wins — so a serve-hosted stream matches an
            // isolated session fed the same prepared edges.
            let fresh = {
                let mut seen = tenant.seen.lock().expect("seen poisoned");
                let mut fresh = Vec::with_capacity(edges.len());
                for e in edges {
                    if e.is_self_loop() {
                        continue;
                    }
                    let n = e.normalized();
                    if seen.insert((n.u, n.v)) {
                        fresh.push(n);
                    }
                }
                fresh
            };
            run_op(state, &tenant, Op::Append(fresh))
        }
        Request::QueryCount { session } => {
            let Some(tenant) = lookup(state, session) else {
                return unknown_session(session);
            };
            run_op(state, &tenant, Op::Count)
        }
        Request::Checkpoint { session, dir } => {
            let Some(tenant) = lookup(state, session) else {
                return unknown_session(session);
            };
            run_op(state, &tenant, Op::Checkpoint(dir.map(PathBuf::from)))
        }
        Request::Close { session } => {
            let Some(tenant) = lookup(state, session) else {
                return unknown_session(session);
            };
            run_op(state, &tenant, Op::Close)
        }
    }
}

fn lookup(state: &ServerState, session: u64) -> Option<Arc<Tenant>> {
    state
        .sessions
        .lock()
        .expect("sessions poisoned")
        .get(&session)
        .cloned()
}

fn unknown_session(session: u64) -> String {
    error_response(ErrorCode::UnknownSession, &format!("no session {session}"))
}

/// Queues an op and waits for its response.
fn run_op(state: &Arc<ServerState>, tenant: &Arc<Tenant>, op: Op) -> String {
    if state.draining.load(Ordering::SeqCst) && !matches!(op, Op::Close) {
        return error_response(
            ErrorCode::Draining,
            "server is draining; only close is accepted",
        );
    }
    match submit(state, tenant, op) {
        Ok(rx) => rx
            .recv()
            .unwrap_or_else(|_| error_response(ErrorCode::Draining, "server stopped mid-op")),
        Err((code, message)) => error_response(code, &message),
    }
}

/// Resolves a [`SessionSpec`] to a full `TcConfig` shaped for this
/// machine's per-rank template.
fn build_session_config(
    spec: &SessionSpec,
    template: &PimConfig,
) -> Result<TcConfig, (ErrorCode, String)> {
    let bad = |m: String| (ErrorCode::BadRequest, m);
    let mut builder = TcConfig::builder().colors(spec.colors);
    if let Some(seed) = spec.seed {
        builder = builder.seed(seed);
    }
    if let Some(p) = spec.uniform_p {
        builder = builder.uniform_p(p);
    }
    if let Some(m) = spec.capacity {
        builder = builder.sample_capacity(m);
    }
    if let Some((k, t)) = spec.misra_gries {
        builder = builder.misra_gries(k, t);
    }
    // The wire spec is authoritative for the session's shape: the daemon
    // must not inherit `PIM_TC_RANKS` from its own environment, or the
    // same frame would admit on one deployment and bounce on another.
    builder = builder.ranks(spec.ranks.unwrap_or(1));
    if let Some(s) = spec.spares {
        builder = builder.spare_dpus(s);
    }
    if let Some(journal) = spec.journal {
        builder = builder.journal(journal);
    }
    if let Some(backend) = &spec.backend {
        let backend: ExecBackend = backend.parse().map_err(|e: TcError| bad(e.to_string()))?;
        builder = builder.backend(backend);
    }
    let mut pim = *template;
    if let Some(faults) = &spec.faults {
        let plan = FaultPlan::parse(faults).map_err(|e| bad(format!("\"faults\": {e}")))?;
        pim.fault = Some(plan);
    }
    // Validate against an uncapped core budget: whether the session fits
    // the machine is the admission controller's call (which names the
    // binding limit), not the config validator's. The real per-rank core
    // count is applied after admission via `with_dpus(per_rank_dpus)`.
    builder = builder.pim(pim.with_dpus(u32::MAX as usize));
    builder.build().map_err(|e| bad(e.to_string()))
}

/// Admits, leases, and starts one session.
fn create_session(state: &Arc<ServerState>, spec: &SessionSpec) -> String {
    if state.draining.load(Ordering::SeqCst) {
        return error_response(ErrorCode::Draining, "server is draining; no new sessions");
    }
    let mut config = match build_session_config(spec, &state.cfg.pim) {
        Ok(config) => config,
        Err((code, message)) => return error_response(code, &message),
    };
    let id = state.next_session.fetch_add(1, Ordering::SeqCst) + 1;
    let (footprint, leases) = match state.admission.admit(id, &config) {
        Ok(granted) => granted,
        Err(rejection) => {
            state.metric("pim_serve_rejected_total").inc();
            return error_response(ErrorCode::Admission, &rejection.to_message());
        }
    };
    // Shrink the session's machine to exactly its lease: the RankCluster
    // allocates per_rank_dpus cores per rank, nothing more.
    config.pim = config.pim.with_dpus(footprint.per_rank_dpus as usize);

    let hub = Arc::new(MetricsHub::new());
    let health = Arc::new(HealthState::new());
    hub.add_sink(Box::new(HealthSink::new(Arc::clone(&health))));
    let watchdog = Watchdog::new(Arc::clone(&hub), WatchdogConfig::default());
    let engine = match SessionEngine::start(&config, Arc::clone(&hub)) {
        Ok(engine) => engine,
        Err(e) => {
            state.admission.release(id);
            return engine_error(&e);
        }
    };
    let tenant = Arc::new(Tenant {
        id,
        engine: Mutex::new(Some(engine)),
        queue: Mutex::new(VecDeque::new()),
        space: Condvar::new(),
        queued: AtomicBool::new(false),
        closed: AtomicBool::new(false),
        seq: AtomicU64::new(0),
        edges: AtomicU64::new(0),
        seen: Mutex::new(HashSet::new()),
        leases,
        health,
        watchdog: Mutex::new(watchdog),
    });
    {
        let mut sessions = state.sessions.lock().expect("sessions poisoned");
        sessions.insert(id, Arc::clone(&tenant));
        state.sessions_gauge().set(sessions.len() as f64);
    }
    state.metric("pim_serve_admitted_total").inc();
    // The fully resolved config is echoed so clients can reproduce the
    // session exactly.
    ok_response(
        "create-session",
        json!({
            "session": id,
            "config": config,
            "leases": tenant.leases.iter().map(lease_json).collect::<Vec<_>>(),
            "footprint": json!({
                "partitions": footprint.partitions,
                "ranks": footprint.ranks,
                "per_rank_dpus": footprint.per_rank_dpus,
                "total_dpus": footprint.total_dpus,
            }),
        }),
    )
}

/// The `stats` verb: server-wide counters and the lease picture.
fn render_stats(state: &ServerState) -> String {
    let sessions = state.sessions.lock().expect("sessions poisoned").len();
    ok_response(
        "stats",
        json!({
            "sessions_active": sessions,
            "admitted": state.admission.admitted(),
            "rejected": state.admission.rejected(),
            "leased_dpus": state.admission.leased_dpus(),
            "total_dpus": state.admission.total_dpus(),
            "ranks": state.cfg.ranks,
            "rank_dpus": state.cfg.pim.total_dpus,
            "draining": state.draining.load(Ordering::SeqCst),
            "leases": state.admission.leases(),
        }),
    )
}
