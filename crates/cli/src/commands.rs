//! Subcommand implementations.

use crate::args::Args;
use pim_graph::{gen, io, prep, stats, CooGraph};
use pim_metrics::{
    HealthSink, HealthState, JsonlSink, MemorySink, MetricsHub, MetricsServer, Watchdog,
    WatchdogConfig,
};
use pim_tc::TcConfig;
use std::path::Path;
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  pimtc count <graph> [--colors C] [--uniform-p P] [--capacity M]
              [--misra-gries K,T] [--seed S] [--backend timed|functional]
              [--ranks N] [--auto] [--route-chunk E] [--intersect STRAT]
              [--baseline] [--json]
      Count triangles on the simulated PIM system. --baseline also runs
      the measured CPU baseline; --local reports the top triangle-central
      vertices (per-vertex counting). --backend functional skips all
      timing/energy modeling (same exact counts, zero clocks);
      --route-chunk bounds host memory to E input edges per routing
      chunk. Both also read the PIM_TC_BACKEND environment variable.
      --ranks N shards the triplet grid over N independent PIM ranks so
      capacity scales by adding ranks (default 1, or the PIM_TC_RANKS
      environment variable). --auto plans (C, M, p, k, ranks) from the
      graph's statistics via the capacity planner; any explicit flag
      still overrides the planned value.
      --intersect adaptive|merge|gallop|bitmap picks the count kernel's
      intersection strategy (default adaptive; the others are forced
      ablation modes — identical counts, different cycle profiles; see
      docs/PERFORMANCE.md).

      Robustness (count/dynamic/profile; see docs/ROBUSTNESS.md):
      --faults SPEC|FILE injects seeded faults into the simulated
      hardware (grammar: seed=U64,transfer=PPM,corrupt=PPM,launch=PPM,
      kill=DPU@OP, rank=R@OP|count, rank_flaky=R:PPM, scrub=N; a path to
      a file holding one spec also works; the PIM_SIM_FAULTS environment
      variable is the fallback). rank=R@OP takes a whole rank — every
      core and spare on it — permanently offline at faultable op OP
      (`@count` fires at the first triangle-count op); survivors re-home
      its partitions onto other ranks' spares. --spares N
      reserves N spare cores for permanent-death failover; --max-retries
      R bounds consecutive retries of a faulted operation; --hardened
      forces the checksummed pipeline even without a fault plan.
      --journal keeps replayable per-partition RNG journals so lost
      partitions are re-derived exactly (works with Misra-Gries,
      overflowed reservoirs, and C = 1; implies --hardened);
      --scrub-interval N proactively verifies every resident bank each
      N ingest chunks (dynamic).

      Metrics (count/dynamic/profile; see docs/OBSERVABILITY.md):
      --metrics-out FILE captures the run's live metric stream.
      --metrics-format jsonl (default) streams one structured event per
      line as the run executes; --metrics-format prom writes the final
      Prometheus text exposition instead. Aggregating the JSONL stream
      (`pimtc metrics-summary`) reconciles exactly with the run's own
      report totals.
      --serve-metrics ADDR (or PIM_TC_SERVE_METRICS; e.g. 127.0.0.1:9464,
      port 0 picks a free port) starts an in-process HTTP exporter for
      the run: GET /metrics is the live Prometheus scrape, /healthz the
      run phase + progress watermark + raised anomalies as JSON, /trace
      the chrome-trace-so-far. The straggler/imbalance watchdog runs
      between ops whenever live telemetry is on: --watchdog-straggler K
      tunes the slowest-DPU threshold (default 4.0 x p50);
      --watchdog-fail turns any raised anomaly (straggler, core/rank
      death, retry spike, stall) into a non-zero exit for CI.

  pimtc stats <graph-or-kind> [--ranks N] [--json] [generator options]
      Graph characteristics — |V|, |E|, triangles, degrees, clustering —
      plus the capacity planner's recommended (C, M, p, k, ranks) for the
      default machine shape. The operand is a graph file, or a generator
      kind (rmat/er/powerlaw/grid/geometric, same options as `generate`)
      to size a synthetic workload without writing it out. --ranks pins
      the rank count; otherwise the planner picks the smallest count
      that makes the run exact.

  pimtc generate <kind> <out> [--seed S] [options]
      Write a synthetic graph. Kinds and their options:
        rmat       --scale N (2^N nodes)   --edge-factor F
        er         --nodes N               --probability P
        powerlaw   --nodes N --avg-degree D --gamma G
        grid       --nodes N (rows=cols=sqrt N)
        geometric  --nodes N --radius R

  pimtc dynamic <graph> [--batches B] [--colors C] [--json]
      [--backend timed|functional] [--route-chunk E] [--intersect STRAT]
      [--checkpoint DIR [--checkpoint-every N] [--resume] [--stop-after U]]
      Split the graph into B update batches and recount after each.
      --checkpoint writes a versioned, FNV-checksummed session snapshot
      into DIR (atomically: temp + rename) every N counted updates
      (default 1). --resume continues a killed stream from the snapshot's
      watermark instead of update 0, converging to the same final count
      as an uninterrupted run; corrupt or truncated snapshots are refused.
      --stop-after U ends the process cleanly after U updates — a
      process-kill stand-in for checkpoint tests and CI.

  pimtc profile --graph <path> [--dpus N] [--out trace.json]
      [--colors C] [--uniform-p P] [--capacity M] [--misra-gries K,T]
      [--backend timed|functional] [--route-chunk E] [--intersect STRAT]
      Run a count and write the Chrome trace-event JSON of its metric
      events (load it in chrome://tracing or ui.perfetto.dev; at --ranks
      N > 1 one process per rank), plus a per-kernel summary on
      stdout. --dpus picks the largest color count whose triplet grid
      fits N cores; --colors overrides it. On --backend functional the
      kernel table is built from the live metric stream (cycle counts
      are data-derived and identical to timed; no modeled seconds) and
      the chrome trace is skipped. See docs/OBSERVABILITY.md.

  pimtc metrics-summary <metrics.jsonl> [--by-rank]
      Validate a --metrics-out jsonl capture (every line must parse,
      sequence numbers strictly increasing and gap-free) and print
      aggregated totals: transfers, launches, faults, retries, raised
      anomalies, stream/reservoir state, and modeled seconds. --by-rank
      adds a per-rank breakdown (transfers, retries, faults, deaths,
      kernel cycles) for rank-labeled streams from sharded runs.

  pimtc prom-lint <metrics.prom>
      Validate a Prometheus text exposition (a --metrics-format prom
      capture or a /metrics scrape): TYPE lines, sample grammar, label
      escaping, and histogram bucket invariants. Exits non-zero with the
      first offending line on failure.

  pimtc serve <addr> [--ranks N] [--rank-dpus D] [--workers W]
      [--queue-depth Q] [--max-frame BYTES] [--drain-dir DIR]
      [--watchdog-fail]
      Run the multi-tenant session daemon (docs/SERVING.md): one
      simulated machine of N ranks x D cores (defaults 2 x 2560), shared
      by concurrent tenants over a line-delimited JSON protocol
      (create-session / append-edges / query-count / checkpoint / close,
      plus ping / stats / shutdown). An admission controller rejects
      sessions that do not fit the machine, naming the binding limit;
      admitted sessions lease disjoint per-rank DPU blocks, so tenants
      never share a core. Ops apply in per-session order under a
      fair-share worker pool (--workers), with --queue-depth bounding
      each session's queue (a full queue backpressures the client) and
      --max-frame bounding one request line (and an HTTP header block).
      The same listener answers GET /metrics (Prometheus), /healthz
      (per-session phase, sequence watermark, queue depth, anomalies),
      and /trace. SIGTERM (or a `shutdown` frame) drains gracefully:
      in-flight queues run dry, then every live session is checkpointed
      into --drain-dir (PIMTCKPT snapshots, restorable with `pimtc
      dynamic --resume` tooling).
      --watchdog-fail exits non-zero if any session raised a watchdog
      anomaly over its lifetime.

  pimtc convert <in> <out>
      Convert between the text and binary edge-list formats (direction
      inferred from the .bin extension).

Graphs: text edge lists ('u v' per line, # comments), or binary if the
path ends in .bin. Output of `generate` follows the same rule.";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "count" => cmd_count(&args),
        "stats" => cmd_stats(&args),
        "generate" => cmd_generate(&args),
        "dynamic" => cmd_dynamic(&args),
        "profile" => cmd_profile(&args),
        "metrics-summary" => cmd_metrics_summary(&args),
        "prom-lint" => cmd_prom_lint(&args),
        "serve" => cmd_serve(&args),
        "convert" => cmd_convert(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load(path: &str) -> Result<CooGraph, String> {
    let result = if path.ends_with(".bin") {
        io::load_binary(path)
    } else {
        io::load_text(path)
    };
    result.map_err(|e| format!("cannot read {path}: {e}"))
}

fn save(g: &CooGraph, path: &str) -> Result<(), String> {
    let result = if path.ends_with(".bin") {
        io::save_binary(g, path)
    } else {
        io::save_text(g, path)
    };
    result.map_err(|e| format!("cannot write {path}: {e}"))
}

fn build_config(args: &Args, graph: &CooGraph) -> Result<TcConfig, String> {
    build_config_with_default_colors(args, graph, 8)
}

fn build_config_with_default_colors(
    args: &Args,
    graph: &CooGraph,
    default_colors: u32,
) -> Result<TcConfig, String> {
    let seed: u64 = args.get_or("seed", 0x9E3779B97F4A7C15)?;
    let auto = args.flag("auto");
    let explicit_colors = args.get::<u32>("colors")?;
    let mut colors = explicit_colors.unwrap_or(default_colors);
    let mut builder = if auto {
        // Plan (C, M, p, k, ranks) from the graph's statistics and the
        // default machine shape; explicit flags below still override.
        let s = stats::graph_stats(graph);
        let pim = pim_sim::PimConfig::default();
        let ranks = match args.get::<u32>("ranks")? {
            Some(r) => r,
            None => pim_tc::planner::auto_ranks(&s, &pim).map_err(|e| e.to_string())?,
        };
        let plan = pim_tc::planner::plan_capacity(&s, &pim, ranks).map_err(|e| e.to_string())?;
        eprintln!(
            "planned: colors={} capacity={} uniform-p={:.3} misra-gries={} ranks={} ({})",
            plan.colors,
            plan.sample_capacity,
            plan.uniform_p,
            plan.misra_gries
                .map(|m| format!("{},{}", m.k, m.t))
                .unwrap_or_else(|| "off".into()),
            plan.ranks,
            if plan.exact { "exact" } else { "estimated" }
        );
        colors = explicit_colors.unwrap_or(plan.colors);
        plan.to_builder().seed(seed).colors(colors)
    } else {
        TcConfig::builder().colors(colors).seed(seed)
    };
    if let Some(p) = args.get::<f64>("uniform-p")? {
        builder = builder.uniform_p(p);
    }
    if let Some(r) = args.get::<u32>("ranks")? {
        builder = builder.ranks(r);
    }
    if let Some(m) = args.get::<u64>("capacity")? {
        builder = builder.sample_capacity(m);
    } else if !auto {
        // Plan capacity from the true per-core loads so exact runs fit
        // and simulator memory stays bounded.
        let max_load = pim_tc::host::dpu_loads(graph.edges(), colors, seed)
            .into_iter()
            .max()
            .unwrap_or(0);
        builder = builder.sample_capacity((max_load + 64).max(3));
    }
    if let Some((k, t)) = args.misra_gries()? {
        builder = builder.misra_gries(k, t);
    }
    if args.flag("local") {
        builder = builder.local_counting(graph.num_nodes());
    }
    if let Some(backend) = args.get::<pim_tc::ExecBackend>("backend")? {
        builder = builder.backend(backend);
    }
    if let Some(chunk) = args.get::<u64>("route-chunk")? {
        builder = builder.route_chunk_edges(chunk);
    }
    if let Some(strategy) = args.get::<pim_tc::IntersectStrategy>("intersect")? {
        builder = builder.intersect(strategy);
    }
    if let Some(retries) = args.get::<u32>("max-retries")? {
        builder = builder.max_retries(retries);
    }
    if let Some(spares) = args.get::<u32>("spares")? {
        builder = builder.spare_dpus(spares);
    }
    if args.flag("journal") {
        builder = builder.journal(true);
    }
    if let Some(every) = args.get::<u64>("scrub-interval")? {
        builder = builder.scrub_interval(every);
    }
    if args.flag("hardened") {
        builder = builder.hardened(true);
    }
    builder = builder.fault_plan(fault_plan(args)?);
    builder.build().map_err(|e| e.to_string())
}

/// The live telemetry plane for one run: a metrics hub plus everything
/// that consumes it — the `--metrics-out` capture, the `--serve-metrics`
/// HTTP exporter, and the straggler/imbalance watchdog (see
/// docs/OBSERVABILITY.md §"Live telemetry").
struct MetricsPlane {
    hub: Arc<MetricsHub>,
    /// `--metrics-out` destination, if any.
    out: Option<String>,
    prom: bool,
    /// The in-process `/metrics` + `/healthz` + `/trace` server, if
    /// `--serve-metrics` (or `PIM_TC_SERVE_METRICS`) asked for one.
    server: Option<MetricsServer>,
    /// The run's events so far, kept only while a server renders them
    /// on `/trace`.
    timeline: Option<MemorySink>,
    watchdog: Watchdog,
    /// `--watchdog-fail`: turn any raised anomaly into a non-zero exit.
    watchdog_fail: bool,
}

impl MetricsPlane {
    /// Runs one watchdog pass over the live registry. Raised anomalies
    /// are emitted on the hub (stream + registry + `/healthz`) and echoed
    /// to stderr.
    fn watch(&mut self) {
        for a in self.watchdog.check() {
            eprintln!("watchdog: {}: {}", a.kind, a.detail);
        }
    }

    /// What a run attached to this plane records: every event, on the
    /// plane's hub.
    fn capture(&self) -> pim_tc::Capture {
        pim_tc::Capture {
            metrics: Some(Arc::clone(&self.hub)),
        }
    }

    /// Pushes the chrome-trace-so-far to the live `/trace` endpoint
    /// (no-op without a server).
    fn publish_trace(&self, chrome: &serde_json::Value) {
        if let Some(server) = &self.server {
            server.update_trace(serde_json::to_string(chrome).unwrap());
        }
    }

    /// After a run or update: refresh `/trace` (when served), then run
    /// the watchdog.
    fn on_update(&mut self) {
        if let Some(timeline) = &self.timeline {
            self.publish_trace(&pim_sim::chrome_trace(&timeline.events()));
        }
        self.watch();
    }

    /// Finalizes the plane: flushes the JSONL stream (or renders the
    /// registry as Prometheus text), stops the HTTP server, and — under
    /// `--watchdog-fail` — fails the run if the watchdog raised anything.
    fn finish(&mut self) -> Result<(), String> {
        if let Some(out) = &self.out {
            if self.prom {
                std::fs::write(out, self.hub.render_prometheus())
                    .map_err(|e| format!("cannot write {out}: {e}"))?;
            } else {
                self.hub
                    .flush()
                    .map_err(|e| format!("--metrics-out: {e}"))?;
            }
            eprintln!("metrics written to {out}");
        }
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        if self.watchdog_fail && !self.watchdog.fired().is_empty() {
            return Err(format!("--watchdog-fail: {}", self.watchdog.summary()));
        }
        Ok(())
    }
}

/// Resolves `--metrics-out` / `--metrics-format` / `--serve-metrics` /
/// `--watchdog-*` into a live telemetry plane. `PIM_TC_SERVE_METRICS` is
/// the environment fallback for `--serve-metrics`.
fn metrics_plane(args: &Args) -> Result<Option<MetricsPlane>, String> {
    let out = args.get::<String>("metrics-out")?;
    if out.is_none() && args.get::<String>("metrics-format")?.is_some() {
        return Err("--metrics-format needs --metrics-out FILE".into());
    }
    let serve = match args.get::<String>("serve-metrics")? {
        Some(addr) => Some(addr),
        None => std::env::var("PIM_TC_SERVE_METRICS")
            .ok()
            .filter(|s| !s.is_empty()),
    };
    let watchdog_fail = args.flag("watchdog-fail");
    let straggler = args.get::<f64>("watchdog-straggler")?;
    if out.is_none() && serve.is_none() && !watchdog_fail && straggler.is_none() {
        return Ok(None);
    }
    let format = args.get_or("metrics-format", "jsonl".to_string())?;
    let hub = Arc::new(MetricsHub::new());
    let prom = match format.as_str() {
        "jsonl" => {
            if let Some(out) = &out {
                let sink = JsonlSink::create(Path::new(out))
                    .map_err(|e| format!("--metrics-out: cannot create {out}: {e}"))?;
                hub.add_sink(Box::new(sink));
            }
            false
        }
        "prom" => true,
        other => {
            return Err(format!(
                "--metrics-format: expected jsonl|prom, got {other:?}"
            ))
        }
    };
    let server = match serve {
        Some(addr) => {
            let health = Arc::new(HealthState::new());
            hub.add_sink(Box::new(HealthSink::new(Arc::clone(&health))));
            let server = MetricsServer::start(&addr, Arc::clone(&hub), health)
                .map_err(|e| format!("--serve-metrics: {e}"))?;
            eprintln!("serving live telemetry on http://{}/metrics", server.addr());
            Some(server)
        }
        None => None,
    };
    let timeline = server.as_ref().map(|_| {
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        sink
    });
    let watchdog = Watchdog::new(
        Arc::clone(&hub),
        WatchdogConfig {
            straggler_factor: straggler.unwrap_or(4.0),
            ..WatchdogConfig::default()
        },
    );
    Ok(Some(MetricsPlane {
        hub,
        out,
        prom,
        server,
        timeline,
        watchdog,
        watchdog_fail,
    }))
}

/// Resolves `--faults` into a plan: an inline spec string, a path to a
/// file holding one, or (when the option is absent) the PIM_SIM_FAULTS
/// environment variable.
fn fault_plan(args: &Args) -> Result<Option<pim_sim::FaultPlan>, String> {
    let Some(raw) = args.get::<String>("faults")? else {
        return pim_sim::FaultPlan::from_env().map_err(|e| format!("PIM_SIM_FAULTS: {e}"));
    };
    let spec = if Path::new(&raw).exists() {
        std::fs::read_to_string(&raw).map_err(|e| format!("--faults: cannot read {raw}: {e}"))?
    } else {
        raw
    };
    pim_sim::FaultPlan::parse(spec.trim())
        .map(Some)
        .map_err(|e| format!("--faults: {e}"))
}

/// Process-wide termination flag, raised by SIGTERM/SIGINT so `serve`
/// can drain gracefully. On non-unix targets signals are a no-op and the
/// daemon stops only via the protocol's `shutdown` verb.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM/SIGINT handler (libc `signal`, linked via std).
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SIGINT = 2, SIGTERM = 15 on every unix we build for.
        unsafe {
            signal(2, on_term);
            signal(15, on_term);
        }
    }

    /// No signals to install on non-unix targets.
    #[cfg(not(unix))]
    pub fn install() {}

    /// True once a termination signal arrived.
    pub fn fired() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use pim_server::{ServeConfig, Server, DEFAULT_MAX_FRAME};

    let addr = args.positional(0).unwrap_or("127.0.0.1:9465");
    let ranks: u32 = args.get_or("ranks", 2)?;
    if ranks == 0 {
        return Err("--ranks must be >= 1".into());
    }
    let mut pim = pim_sim::PimConfig::default();
    if let Some(dpus) = args.get::<usize>("rank-dpus")? {
        if dpus == 0 {
            return Err("--rank-dpus must be >= 1".into());
        }
        pim.total_dpus = dpus;
    }
    let cfg = ServeConfig {
        ranks,
        pim,
        queue_depth: args.get_or("queue-depth", 32usize)?.max(1),
        workers: args.get_or("workers", 4usize)?.max(1),
        max_frame: args.get_or("max-frame", DEFAULT_MAX_FRAME)?.max(64),
        drain_dir: args
            .get::<String>("drain-dir")?
            .map(std::path::PathBuf::from),
    };
    let watchdog_fail = args.flag("watchdog-fail");
    let ranks_n = cfg.ranks;
    let rank_dpus = cfg.pim.total_dpus;
    let mut server = Server::start(addr, cfg)?;
    sig::install();
    eprintln!(
        "pimtc serve: {} ranks x {} cores on {} (JSON protocol; GET /metrics /healthz /trace)",
        ranks_n,
        rank_dpus,
        server.addr()
    );
    server.wait_drain(sig::fired);
    eprintln!("pimtc serve: draining");
    let report = server.finish();
    eprintln!(
        "pimtc serve: drained {} live sessions ({} checkpointed, {} anomalies)",
        report.sessions,
        report.checkpointed.len(),
        report.anomalies
    );
    for (id, path) in &report.checkpointed {
        eprintln!("  session {id} -> {}", path.display());
    }
    if watchdog_fail && report.anomalies > 0 {
        return Err(format!(
            "watchdog: {} anomalies raised across sessions",
            report.anomalies
        ));
    }
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    let input = args.positional(0).ok_or("convert: missing input path")?;
    let output = args.positional(1).ok_or("convert: missing output path")?;
    let graph = load(input)?;
    save(&graph, output)?;
    println!(
        "converted {input} -> {output} ({} edges)",
        graph.num_edges()
    );
    Ok(())
}

fn cmd_count(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("count: missing graph path")?;
    let mut graph = load(path)?;
    prep::preprocess(&mut graph, 0);
    let config = build_config(args, &graph)?;
    let mut plane = metrics_plane(args)?;
    let capture = plane
        .as_ref()
        .map(MetricsPlane::capture)
        .unwrap_or_default();
    let profile =
        pim_tc::count_triangles_with(&graph, &config, capture).map_err(|e| e.to_string())?;
    if let Some(p) = plane.as_mut() {
        // With a live server, `/trace` serves the final timeline
        // alongside the scrape.
        p.on_update();
        p.finish()?;
    }
    let result = profile.result;
    if args.flag("json") {
        println!("{}", serde_json::to_string_pretty(&result).unwrap());
    } else {
        let ranks = config.effective_ranks();
        if ranks > 1 {
            println!(
                "{} triangles ({}) on {} PIM cores across {} ranks",
                result.rounded(),
                if result.exact { "exact" } else { "estimated" },
                result.nr_dpus,
                ranks
            );
        } else {
            println!(
                "{} triangles ({}) on {} PIM cores",
                result.rounded(),
                if result.exact { "exact" } else { "estimated" },
                result.nr_dpus
            );
        }
        if config.backend == pim_tc::ExecBackend::Functional {
            println!(
                "functional backend: no modeled time/energy ({} edges routed, max core load {})",
                result.edges_routed, result.max_dpu_load
            );
        } else {
            println!(
                "modeled time: setup {:.3} ms, sample creation {:.3} ms, count {:.3} ms",
                result.times.setup * 1e3,
                result.times.sample_creation * 1e3,
                result.times.triangle_count * 1e3
            );
            println!(
                "modeled energy: {:.4} J ({} edges routed, max core load {})",
                result.energy.total_j(),
                result.edges_routed,
                result.max_dpu_load
            );
        }
        if let Some(local) = &result.local_counts {
            let mut ranked: Vec<(usize, f64)> = local
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, c)| c > 0.0)
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            println!("top triangle-central vertices:");
            for (node, count) in ranked.into_iter().take(5) {
                println!("  node {node}: {count:.0}");
            }
        }
    }
    if args.flag("baseline") {
        let cpu = pim_baselines::cpu_count(&graph);
        println!(
            "CPU baseline (measured): {} triangles, convert {:.3} ms + count {:.3} ms",
            cpu.triangles,
            cpu.convert_secs * 1e3,
            cpu.count_secs * 1e3
        );
        if cpu.triangles != result.rounded() && result.exact {
            return Err("exact PIM result disagrees with CPU baseline".into());
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let source = args
        .positional(0)
        .ok_or("stats: missing graph path or generator kind")?;
    let mut graph = if GENERATOR_KINDS.contains(&source) {
        synthesize(source, args)?
    } else {
        load(source)?
    };
    prep::preprocess(&mut graph, 0);
    let s = stats::graph_stats(&graph);

    // What the capacity planner would run this graph with, on the default
    // machine shape: --ranks pins the rank count, otherwise the smallest
    // rank count that makes the run exact (or the best estimate).
    let pim = pim_sim::PimConfig::default();
    let ranks = match args.get::<u32>("ranks")? {
        Some(r) => r,
        None => pim_tc::planner::auto_ranks(&s, &pim).map_err(|e| e.to_string())?,
    };
    let plan = pim_tc::planner::plan_capacity(&s, &pim, ranks).map_err(|e| e.to_string())?;

    if args.flag("json") {
        let doc = serde_json::Value::Object(vec![
            ("stats".into(), serde_json::to_value(&s).unwrap()),
            ("plan".into(), serde_json::to_value(&plan).unwrap()),
        ]);
        println!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        println!("nodes:               {}", s.num_nodes);
        println!("edges:               {}", s.num_edges);
        println!("triangles:           {}", s.triangles);
        println!("max degree:          {}", s.max_degree);
        println!("avg degree:          {:.2}", s.avg_degree);
        println!("global clustering:   {:.6}", s.global_clustering);
        println!(
            "recommended plan (default machine, {} cores/rank):",
            pim.total_dpus
        );
        println!("  colors (C):        {}", plan.colors);
        println!("  capacity (M):      {}", plan.sample_capacity);
        println!("  uniform-p:         {:.3}", plan.uniform_p);
        match plan.misra_gries {
            Some(mg) => println!("  misra-gries (k,t): {},{}", mg.k, mg.t),
            None => println!("  misra-gries (k,t): off"),
        }
        println!("  ranks:             {}", plan.ranks);
        println!(
            "  expected run:      {} (max core load ~{})",
            if plan.exact { "exact" } else { "estimated" },
            plan.expected_max_load
        );
    }
    Ok(())
}

/// The generator kinds `pimtc generate` (and `pimtc stats`) accept.
const GENERATOR_KINDS: &[&str] = &["rmat", "er", "powerlaw", "grid", "geometric"];

/// Synthesizes a graph of the given `kind` from the command-line options
/// (same grammar as `pimtc generate`).
fn synthesize(kind: &str, args: &Args) -> Result<CooGraph, String> {
    let seed: u64 = args.get_or("seed", 1)?;
    Ok(match kind {
        "rmat" => {
            let scale: u32 = args.get_or("scale", 12)?;
            let ef: u32 = args.get_or("edge-factor", 16)?;
            gen::rmat(scale, ef, 0.57, 0.19, 0.19, seed)
        }
        "er" => {
            let n: u32 = args.get_or("nodes", 1000)?;
            let p: f64 = args.get_or("probability", 0.01)?;
            gen::erdos_renyi(n, p, seed)
        }
        "powerlaw" => {
            let n: u32 = args.get_or("nodes", 10_000)?;
            let avg: f64 = args.get_or("avg-degree", 10.0)?;
            let gamma: f64 = args.get_or("gamma", 2.3)?;
            gen::chung_lu(
                gen::chung_lu::ChungLuParams {
                    n,
                    gamma,
                    avg_degree: avg,
                    max_degree_frac: 0.1,
                },
                seed,
            )
        }
        "grid" => {
            let n: u32 = args.get_or("nodes", 10_000)?;
            let side = (n as f64).sqrt().ceil() as u32;
            gen::grid2d(side, side, 1.0, 0, seed)
        }
        "geometric" => {
            let n: u32 = args.get_or("nodes", 5_000)?;
            let r: f64 = args.get_or("radius", 0.03)?;
            gen::random_geometric(n, r, seed)
        }
        other => return Err(format!("unknown generator kind {other:?}")),
    })
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let kind = args.positional(0).ok_or("generate: missing kind")?;
    let out = args.positional(1).ok_or("generate: missing output path")?;
    let graph = synthesize(kind, args)?;
    save(&graph, out)?;
    println!(
        "wrote {} ({} nodes, {} raw edges)",
        out,
        graph.num_nodes(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_dynamic(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("dynamic: missing graph path")?;
    let batches_n: usize = args.get_or("batches", 10)?;
    let mut graph = load(path)?;
    prep::preprocess(&mut graph, 0);
    let config = build_config(args, &graph)?;
    let batches = graph.split_batches(batches_n);
    let checkpoint = match args.get::<String>("checkpoint")? {
        Some(dir) => Some(pim_baselines::dynamic::DynamicCheckpoint {
            dir: std::path::PathBuf::from(dir),
            every: args.get_or("checkpoint-every", 1u64)?,
            resume: args.flag("resume"),
            stop_after: args.get_or("stop-after", 0u64)?,
        }),
        None => {
            let stray = ["checkpoint-every", "stop-after", "resume"]
                .into_iter()
                .find(|f| args.flag(f) || args.get::<String>(f).ok().flatten().is_some());
            if let Some(flag) = stray {
                return Err(format!("--{flag} needs --checkpoint DIR"));
            }
            None
        }
    };
    let mut plane = metrics_plane(args)?;
    let capture = plane
        .as_ref()
        .map(MetricsPlane::capture)
        .unwrap_or_default();
    // Between-update hook: refresh `/trace`, run the watchdog.
    let mut on_update = |_t: &pim_baselines::dynamic::UpdateTiming| {
        if let Some(p) = plane.as_mut() {
            p.on_update();
        }
    };
    let run = pim_baselines::dynamic::DynamicRun {
        capture,
        observer: Some(&mut on_update),
        checkpoint,
    };
    let (timings, _report) = pim_baselines::dynamic::pim_dynamic_with(&batches, &config, run)
        .map_err(|e| e.to_string())?;
    if let Some(p) = plane.as_mut() {
        // No trailing watchdog pass: the run is over, so the watermark is
        // legitimately frozen and a final check would misread it as a
        // stall. Per-update checks already ran above.
        p.finish()?;
    }
    if args.flag("json") {
        println!("{}", serde_json::to_string_pretty(&timings).unwrap());
    } else {
        println!("update | triangles | cumulative modeled time");
        for t in &timings {
            println!(
                "{:6} | {:9} | {:10.3} ms",
                t.update + 1,
                t.triangles.round(),
                t.cumulative_secs * 1e3
            );
        }
    }
    Ok(())
}

/// Largest color count whose triplet grid C·(C+1)·(C+2)/6 (§3.1) fits in
/// `dpus` PIM cores; at least 1.
fn colors_for_dpus(dpus: usize) -> u32 {
    let mut c = 1u64;
    while (c + 1) * (c + 2) * (c + 3) / 6 <= dpus as u64 {
        c += 1;
    }
    c as u32
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let path = args
        .get::<String>("graph")?
        .or_else(|| args.positional(0).map(String::from))
        .ok_or("profile: missing --graph <path>")?;
    let dpus: usize = args.get_or("dpus", 120)?;
    let out = args.get_or("out", "trace.json".to_string())?;

    let mut graph = load(&path)?;
    prep::preprocess(&mut graph, 0);
    let config = build_config_with_default_colors(args, &graph, colors_for_dpus(dpus))?;

    // Retries and the chrome trace come from the run's own metric
    // stream, so every profile runs a hub (with an in-memory sink) even
    // without --metrics-out.
    let mut plane = metrics_plane(args)?;
    let functional = config.backend == pim_tc::ExecBackend::Functional;
    let hub = plane
        .as_ref()
        .map_or_else(|| Arc::new(MetricsHub::new()), |p| Arc::clone(&p.hub));
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    let capture = pim_tc::Capture { metrics: Some(hub) };
    let profile =
        pim_tc::count_triangles_with(&graph, &config, capture).map_err(|e| e.to_string())?;

    let result = &profile.result;
    let report = &profile.report;
    println!(
        "{} triangles ({}) on {} PIM cores ({} colors)",
        result.rounded(),
        if result.exact { "exact" } else { "estimated" },
        result.nr_dpus,
        result.colors
    );
    if functional {
        println!(
            "functional backend: no modeled time/energy; cycle and traffic \
             figures below are data-derived and match a timed run"
        );
    } else {
        println!(
            "modeled time: setup {:.3} ms, sample creation {:.3} ms, count {:.3} ms",
            result.times.setup * 1e3,
            result.times.sample_creation * 1e3,
            result.times.triangle_count * 1e3
        );
    }
    println!(
        "transfers: {} B in {:.3} ms ({:.1}% of aggregate bandwidth cap)",
        report.total_transfer_bytes,
        report.transfer_seconds * 1e3,
        report.transfer_bandwidth_utilization * 100.0
    );

    // One row per kernel label and phase, over every rank. Cycles are the
    // summed slowest-DPU cycles; p99/p50 and imbalance are the worst launch's.
    println!(
        "kernel        phase             launches   failed   time (ms)       cycles   p99/p50      imbalance"
    );
    for k in &report.kernels {
        println!(
            "{:<13} {:<16} {:>9} {:>8} {:>11.3} {:>12} {:>7}/{:<7} {:>8.2}x",
            k.label,
            k.phase.metric_name(),
            k.launches,
            k.failed,
            k.seconds * 1e3,
            k.max_cycles,
            k.p99_cycles,
            k.p50_cycles,
            k.imbalance
        );
    }
    let events = sink.events();
    let retries = pim_metrics::summarize(&events).retries.values().sum();
    print_fault_section(&report.fault_counters, retries);

    if !functional {
        // At R>1 every rank's events render as their own process group.
        let chrome = pim_sim::chrome_trace(&events);
        if let Some(p) = &plane {
            p.publish_trace(&chrome);
        }
        std::fs::write(&out, serde_json::to_string(&chrome).unwrap())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("chrome trace written to {out}");
    } else {
        println!("no chrome trace: the functional engine records no timeline");
    }
    if let Some(p) = plane.as_mut() {
        p.watch();
        p.finish()?;
    }
    Ok(())
}

/// Prints the profile's fault/retry section, zero-suppressed: fault-free
/// runs with no retries print nothing at all, and only non-zero counters
/// appear otherwise.
fn print_fault_section(fc: &pim_sim::FaultCounters, retries: u64) {
    if fc.total() == 0 && retries == 0 {
        return;
    }
    println!("faults/retries:");
    for (label, n) in [
        ("transfer faults", fc.transfer_faults),
        ("payload corruptions", fc.corruptions),
        ("launch faults", fc.launch_faults),
        ("core deaths", fc.dpu_deaths),
        ("rank deaths", fc.rank_deaths),
        ("retried operations", retries),
    ] {
        if n > 0 {
            println!("  {label:<21} {n}");
        }
    }
}

fn cmd_prom_lint(args: &Args) -> Result<(), String> {
    let path = args
        .positional(0)
        .ok_or("prom-lint: missing exposition file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    pim_metrics::lint_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: OK");
    Ok(())
}

fn cmd_metrics_summary(args: &Args) -> Result<(), String> {
    let path = args
        .positional(0)
        .ok_or("metrics-summary: missing metrics JSONL path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = pim_metrics::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let s = pim_metrics::summarize(&events);
    println!("events:         {} (last seq {})", s.events, s.last_seq);
    println!(
        "pim cores:      {} (alloc {:.3} ms)",
        s.nr_dpus,
        s.alloc_seconds * 1e3
    );
    if !s.transfers.is_empty() {
        println!("transfers:");
        println!("  op          ops   failed        bytes    time (ms)");
        for (op, t) in &s.transfers {
            println!(
                "  {:<9} {:>5} {:>8} {:>12} {:>12.3}",
                op,
                t.ops,
                t.failed,
                t.bytes,
                t.seconds * 1e3
            );
        }
    }
    if !s.launches.is_empty() {
        println!("launches:");
        println!("  kernel        launches   failed   instructions     dma bytes    time (ms)");
        for (label, l) in &s.launches {
            println!(
                "  {:<13} {:>8} {:>8} {:>14} {:>13} {:>12.3}",
                label,
                l.launches,
                l.failed,
                l.instructions,
                l.dma_bytes,
                l.seconds * 1e3
            );
        }
    }
    if !s.retries.is_empty() {
        println!("retries:");
        for (op, n) in &s.retries {
            println!("  {op:<13} {n}");
        }
    }
    if !s.faults.is_empty() {
        println!("faults:");
        for (kind, n) in &s.faults {
            println!("  {kind:<13} {n}");
        }
    }
    if !s.anomalies.is_empty() {
        println!("anomalies:");
        for (kind, n) in &s.anomalies {
            println!("  {kind:<13} {n}");
        }
    }
    if args.flag("by-rank") {
        if s.by_rank.is_empty() {
            println!("by-rank:        no rank-scoped events (single-rank stream)");
        } else {
            println!("by-rank:");
            println!(
                "  rank   events   xfer ops   xfer bytes   retries   faults   deaths   launches   kernel cycles"
            );
            for (rank, a) in &s.by_rank {
                println!(
                    "  {:>4} {:>8} {:>10} {:>12} {:>9} {:>8} {:>8} {:>10} {:>15}",
                    rank,
                    a.events,
                    a.transfer_ops,
                    a.transfer_bytes,
                    a.retries,
                    a.faults,
                    a.deaths,
                    a.launches,
                    a.kernel_cycles
                );
            }
        }
    }
    if s.failovers > 0 {
        println!("failovers:      {}", s.failovers);
    }
    if s.journal_replays > 0 {
        println!(
            "journal:        {} replays ({} keys re-derived)",
            s.journal_replays, s.journal_replayed_keys
        );
    }
    if s.scrub_sweeps > 0 {
        println!(
            "scrub:          {} sweeps, {} banks repaired in place",
            s.scrub_sweeps, s.scrub_repaired
        );
    }
    if s.chunks > 0 {
        println!(
            "stream:         {} chunks, {} edges ({} offered, {} kept), peak routed {} B",
            s.chunks, s.edges, s.edges_offered, s.edges_kept, s.peak_routed_bytes
        );
    }
    if s.mg_summary > 0 {
        println!("misra-gries:    {} tracked entries", s.mg_summary);
    }
    if s.reservoir_capacity > 0 {
        println!(
            "reservoir:      {}/{} edges resident, max fill {:.1}%",
            s.reservoir_resident,
            s.reservoir_capacity,
            s.reservoir_fill_max * 100.0
        );
    }
    println!("modeled time:   {:.3} ms total", s.total_seconds() * 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &[&str]) -> Result<(), String> {
        dispatch(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pimtc_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_stats_count_round_trip() {
        let path = tmp("g1.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "120",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&["stats", &path]).unwrap();
        run(&["count", &path, "--colors", "3", "--baseline"]).unwrap();
    }

    #[test]
    fn binary_output_works() {
        let path = tmp("g2.bin");
        run(&[
            "generate",
            "rmat",
            &path,
            "--scale",
            "8",
            "--edge-factor",
            "4",
        ])
        .unwrap();
        run(&["count", &path, "--colors", "2"]).unwrap();
    }

    #[test]
    fn dynamic_runs() {
        let path = tmp("g3.txt");
        run(&[
            "generate",
            "powerlaw",
            &path,
            "--nodes",
            "300",
            "--avg-degree",
            "6",
        ])
        .unwrap();
        run(&["dynamic", &path, "--batches", "3", "--colors", "2"]).unwrap();
        // Checkpoint flags are refused without a checkpoint directory
        // instead of being silently ignored.
        for flag in [
            &["--resume"][..],
            &["--stop-after", "1"],
            &["--checkpoint-every", "2"],
        ] {
            let err = run(&[&["dynamic", path.as_str()][..], flag].concat()).unwrap_err();
            assert!(
                err.contains(&format!("{} needs --checkpoint DIR", flag[0])),
                "got: {err}"
            );
        }
        let dir = tmp("g3.ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = ["dynamic", path.as_str(), "--checkpoint", dir.as_str()];
        run(&[&ckpt[..], &["--stop-after", "1"]].concat()).unwrap();
        run(&[&ckpt[..], &["--resume"]].concat()).unwrap();
    }

    #[test]
    fn convert_round_trips() {
        let txt = tmp("c1.txt");
        let bin = tmp("c1.bin");
        let back = tmp("c2.txt");
        run(&[
            "generate",
            "er",
            &txt,
            "--nodes",
            "50",
            "--probability",
            "0.2",
        ])
        .unwrap();
        run(&["convert", &txt, &bin]).unwrap();
        run(&["convert", &bin, &back]).unwrap();
        let a = pim_graph::io::load_text(&txt).unwrap();
        let b = pim_graph::io::load_text(&back).unwrap();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn local_flag_reports_central_vertices() {
        let path = tmp("c3.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "60",
            "--probability",
            "0.3",
        ])
        .unwrap();
        run(&["count", &path, "--colors", "2", "--local"]).unwrap();
    }

    #[test]
    fn count_shards_across_ranks_with_identical_counts() {
        let path = tmp("r1.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "120",
            "--probability",
            "0.1",
        ])
        .unwrap();
        // Same graph, 1 vs 2 ranks: the sharded run must agree with the
        // CPU baseline exactly, like the plain one.
        run(&["count", &path, "--colors", "3", "--baseline"]).unwrap();
        run(&[
            "count",
            &path,
            "--colors",
            "3",
            "--ranks",
            "2",
            "--baseline",
        ])
        .unwrap();
        // Rank counts are validated like every other option.
        assert!(run(&["count", &path, "--ranks", "0"]).is_err());
        assert!(run(&["count", &path, "--ranks", "banana"]).is_err());
    }

    #[test]
    fn auto_plans_the_configuration_from_graph_stats() {
        let path = tmp("r2.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "150",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&["count", &path, "--auto", "--baseline"]).unwrap();
        // Explicit flags override the plan.
        run(&["count", &path, "--auto", "--colors", "2", "--ranks", "2"]).unwrap();
    }

    #[test]
    fn stats_accepts_generators_and_prints_a_plan() {
        // A generator kind sizes a synthetic workload without a file.
        run(&["stats", "er", "--nodes", "100", "--probability", "0.1"]).unwrap();
        run(&["stats", "er", "--nodes", "100", "--ranks", "2"]).unwrap();
        // Files still work, and --json carries both stats and plan.
        let path = tmp("r3.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "80",
            "--probability",
            "0.15",
        ])
        .unwrap();
        run(&["stats", &path, "--json"]).unwrap();
        assert!(run(&["stats", "/nonexistent.txt"]).is_err());
    }

    #[test]
    fn colors_for_dpus_picks_largest_fitting_grid() {
        assert_eq!(colors_for_dpus(0), 1);
        assert_eq!(colors_for_dpus(1), 1); // C=2 needs 4 DPUs
        assert_eq!(colors_for_dpus(4), 2);
        assert_eq!(colors_for_dpus(119), 7); // C=8 needs 120
        assert_eq!(colors_for_dpus(120), 8);
        assert_eq!(colors_for_dpus(2560), 23); // C=24 needs 2600
    }

    #[test]
    fn profile_writes_a_chrome_trace() {
        let graph = tmp("p1.txt");
        let trace = tmp("p1.trace.json");
        run(&[
            "generate",
            "er",
            &graph,
            "--nodes",
            "80",
            "--probability",
            "0.15",
        ])
        .unwrap();
        // Kernel trace events are a timed-backend guarantee; pin it so
        // the test holds under PIM_TC_BACKEND=functional too.
        run(&[
            "profile",
            "--graph",
            &graph,
            "--dpus",
            "20",
            "--out",
            &trace,
            "--backend",
            "timed",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(|n| n.as_str()) == Some("kernel:count") }));
    }

    /// The live `/trace` at `--ranks 2` carries every rank: a process per
    /// rank, each with its own `kernel:count` span.
    #[test]
    fn live_trace_covers_every_rank() {
        use std::io::{Read, Write};
        let g = pim_graph::gen::erdos_renyi(100, 0.15, 7);
        let argv = ["--colors", "3", "--ranks", "2", "--backend", "timed"];
        let argv = [&argv[..], &["--serve-metrics", "127.0.0.1:0"]].concat();
        let args = Args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
        let config = build_config(&args, &g).unwrap();
        let mut plane = metrics_plane(&args).unwrap().unwrap();
        pim_tc::count_triangles_with(&g, &config, plane.capture()).unwrap();
        plane.on_update();

        let addr = plane.server.as_ref().unwrap().addr();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET /trace HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        plane.finish().unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
        let chrome: serde_json::Value = serde_json::from_str(body).unwrap();
        let events = chrome.get("traceEvents").unwrap().as_array().unwrap();
        let named = |e: &serde_json::Value, name: &str| {
            e.get("name").and_then(|n| n.as_str()) == Some(name)
        };
        for (rank, pid) in [(0u64, 1u64), (1, 2)] {
            let label = format!("rank {rank}");
            assert!(
                events.iter().any(|e| named(e, "process_name")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
                    && named(e.get("args").unwrap(), &label)),
                "no process for rank {rank}"
            );
            assert!(
                events.iter().any(|e| named(e, "kernel:count")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(pid)),
                "no kernel:count span for rank {rank}"
            );
        }
    }

    #[test]
    fn backend_flag_selects_engine_without_changing_counts() {
        let g = pim_graph::gen::erdos_renyi(100, 0.15, 7);
        let argv = |toks: &[&str]| {
            Args::parse(&toks.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        let timed_cfg = build_config(&argv(&["--colors", "3", "--backend", "timed"]), &g).unwrap();
        let func_cfg =
            build_config(&argv(&["--colors", "3", "--backend", "functional"]), &g).unwrap();
        assert_eq!(func_cfg.backend, pim_tc::ExecBackend::Functional);
        let timed = pim_tc::count_triangles(&g, &timed_cfg).unwrap();
        let func = pim_tc::count_triangles(&g, &func_cfg).unwrap();
        assert_eq!(timed.rounded(), func.rounded());
        assert!(timed.times.total() > 0.0);
        assert_eq!(func.times.total(), 0.0);
    }

    #[test]
    fn functional_count_and_route_chunk_run_end_to_end() {
        let path = tmp("g4.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "100",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&[
            "count",
            &path,
            "--colors",
            "2",
            "--backend",
            "functional",
            "--route-chunk",
            "500",
        ])
        .unwrap();
        assert!(run(&["count", &path, "--backend", "warp-drive"]).is_err());
    }

    #[test]
    fn fault_injection_flags_run_end_to_end() {
        let path = tmp("g5.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "100",
            "--probability",
            "0.1",
        ])
        .unwrap();
        // A seeded mix of transients plus one covered core death.
        run(&[
            "count",
            &path,
            "--colors",
            "3",
            "--faults",
            "seed=3,transfer=50000,corrupt=50000,kill=2@9",
            "--spares",
            "2",
        ])
        .unwrap();
        // Hardened mode and a retry budget work without any fault plan.
        run(&[
            "count",
            &path,
            "--colors",
            "2",
            "--hardened",
            "--max-retries",
            "3",
        ])
        .unwrap();
        // Bad specs and impossible recoveries are actionable errors, not
        // panics.
        let err = run(&["count", &path, "--faults", "warp=1"]).unwrap_err();
        assert!(err.contains("--faults"), "got: {err}");
        let err = run(&["count", &path, "--colors", "3", "--faults", "kill=0@4"]).unwrap_err();
        assert!(err.contains("no spare"), "got: {err}");
    }

    #[test]
    fn faults_can_come_from_a_spec_file() {
        let path = tmp("g6.txt");
        let spec = tmp("faults.spec");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "80",
            "--probability",
            "0.1",
        ])
        .unwrap();
        std::fs::write(&spec, "seed=1,transfer=40000\n").unwrap();
        run(&["count", &path, "--colors", "2", "--faults", &spec]).unwrap();
    }

    #[test]
    fn count_metrics_jsonl_round_trips_through_summary() {
        let path = tmp("m1.txt");
        let metrics = tmp("m1.jsonl");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "100",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&["count", &path, "--colors", "3", "--metrics-out", &metrics]).unwrap();
        // Well-formed: every line parses, seq strictly increasing.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let events = pim_metrics::parse_jsonl(&text).unwrap();
        assert!(!events.is_empty());
        let s = pim_metrics::summarize(&events);
        assert!(s.transfer_bytes() > 0);
        assert!(s.chunks > 0);
        run(&["metrics-summary", &metrics]).unwrap();
    }

    #[test]
    fn dynamic_metrics_stream_is_well_formed_on_both_backends() {
        let path = tmp("m2.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "120",
            "--probability",
            "0.1",
        ])
        .unwrap();
        for backend in ["timed", "functional"] {
            let metrics = tmp(&format!("m2.{backend}.jsonl"));
            run(&[
                "dynamic",
                &path,
                "--batches",
                "3",
                "--colors",
                "2",
                "--backend",
                backend,
                "--metrics-out",
                &metrics,
            ])
            .unwrap();
            let text = std::fs::read_to_string(&metrics).unwrap();
            let events = pim_metrics::parse_jsonl(&text).unwrap();
            let s = pim_metrics::summarize(&events);
            assert_eq!(s.chunks, 3, "{backend}: one chunk event per batch");
            assert!(s.launches.contains_key("count"), "{backend}");
            if backend == "functional" {
                assert_eq!(s.total_seconds(), 0.0);
            } else {
                assert!(s.total_seconds() > 0.0);
            }
        }
    }

    #[test]
    fn prometheus_format_renders_exposition_text() {
        let path = tmp("m3.txt");
        let metrics = tmp("m3.prom");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "80",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&[
            "count",
            &path,
            "--colors",
            "2",
            "--metrics-out",
            &metrics,
            "--metrics-format",
            "prom",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.starts_with("# "),
            "expected exposition header, got: {}",
            &text[..40.min(text.len())]
        );
        assert!(text.contains("# TYPE pim_transfer_bytes_total counter"));
        assert!(text.contains("pim_transfer_bytes_total"));
        // No closing brace: sharded runs (PIM_TC_RANKS > 1) append a
        // `rank="N"` label to every series.
        assert!(text.contains("pim_launches_total{label=\"count\""));
        // Bad format names are an error, as is --metrics-format alone.
        assert!(run(&[
            "count",
            &path,
            "--metrics-out",
            &metrics,
            "--metrics-format",
            "xml"
        ])
        .is_err());
        assert!(run(&["count", &path, "--metrics-format", "prom"]).is_err());
    }

    #[test]
    fn functional_profile_reports_kernels_without_a_trace() {
        let graph = tmp("m4.txt");
        let trace = tmp("m4.trace.json");
        run(&[
            "generate",
            "er",
            &graph,
            "--nodes",
            "80",
            "--probability",
            "0.15",
        ])
        .unwrap();
        let _ = std::fs::remove_file(&trace);
        run(&[
            "profile",
            "--graph",
            &graph,
            "--dpus",
            "20",
            "--out",
            &trace,
            "--backend",
            "functional",
        ])
        .unwrap();
        // The functional engine records no timeline, so no trace file
        // appears (rather than an empty or misleading one).
        assert!(!Path::new(&trace).exists());
    }

    #[test]
    fn faulted_profile_prints_fault_section_end_to_end() {
        let graph = tmp("m5.txt");
        let trace = tmp("m5.trace.json");
        run(&[
            "generate",
            "er",
            &graph,
            "--nodes",
            "100",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&[
            "profile",
            "--graph",
            &graph,
            "--dpus",
            "20",
            "--out",
            &trace,
            "--backend",
            "timed",
            "--faults",
            "seed=2,transfer=40000",
        ])
        .unwrap();
    }

    #[test]
    fn metrics_summary_rejects_corrupt_streams() {
        let good = tmp("m6.jsonl");
        std::fs::write(
            &good,
            "{\"seq\":1,\"kind\":\"alloc\",\"nr_dpus\":4,\"seconds\":0.0}\n",
        )
        .unwrap();
        run(&["metrics-summary", &good]).unwrap();
        // Non-monotone sequence numbers are named by line.
        let bad = tmp("m6.bad.jsonl");
        std::fs::write(
            &bad,
            "{\"seq\":2,\"kind\":\"alloc\",\"nr_dpus\":4,\"seconds\":0.0}\n\
             {\"seq\":2,\"kind\":\"phase\",\"to\":\"setup\"}\n",
        )
        .unwrap();
        let err = run(&["metrics-summary", &bad]).unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
        // Unparseable lines too.
        let ugly = tmp("m6.ugly.jsonl");
        std::fs::write(&ugly, "not json\n").unwrap();
        assert!(run(&["metrics-summary", &ugly]).is_err());
        assert!(run(&["metrics-summary", "/nonexistent.jsonl"]).is_err());
    }

    #[test]
    fn stats_rejects_corrupt_binary_graphs_with_a_clean_error() {
        // A header promising an absurd edge count must surface as a
        // one-line error from dispatch (non-zero process exit), not an
        // allocator abort; likewise truncation and bad magic.
        let g = pim_graph::gen::erdos_renyi(30, 0.2, 1);
        let path = tmp("stats_corrupt.bin");
        io::save_binary(&g, &path).unwrap();
        run(&["stats", &path, "--json"]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = run(&["stats", &path, "--json"]).unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes[..40]).unwrap();
        let err = run(&["stats", &path]).unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
        assert!(run(&["stats", "/nonexistent/graph.bin"]).is_err());
    }

    #[test]
    fn metrics_summary_rejects_unreadable_bytes() {
        // Invalid UTF-8 is an unreadable stream, not a panic.
        let path = tmp("m7.nonutf8.jsonl");
        std::fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x80]).unwrap();
        let err = run(&["metrics-summary", &path]).unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
    }

    #[test]
    fn serve_metrics_runs_end_to_end_and_rejects_bad_addresses() {
        let path = tmp("s1.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "100",
            "--probability",
            "0.1",
        ])
        .unwrap();
        // Port 0 binds a free port; the run serves, finishes, and shuts
        // the exporter down cleanly on all three serving subcommands.
        run(&[
            "count",
            &path,
            "--colors",
            "2",
            "--serve-metrics",
            "127.0.0.1:0",
        ])
        .unwrap();
        run(&[
            "dynamic",
            &path,
            "--batches",
            "2",
            "--colors",
            "2",
            "--serve-metrics",
            "127.0.0.1:0",
        ])
        .unwrap();
        let err = run(&["count", &path, "--serve-metrics", "not-an-addr"]).unwrap_err();
        assert!(err.contains("--serve-metrics"), "got: {err}");
    }

    #[test]
    fn watchdog_fail_flags_injected_faults_and_stays_quiet_clean() {
        let path = tmp("w1.txt");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "100",
            "--probability",
            "0.1",
        ])
        .unwrap();
        // Clean run: nothing fires, exit stays zero. (This graph's sort
        // kernel has a natural ~4x max/p50 skew on 4 cores, so give the
        // straggler check headroom — the point here is deaths/stalls.)
        run(&[
            "count",
            &path,
            "--colors",
            "2",
            "--watchdog-fail",
            "--watchdog-straggler",
            "8",
        ])
        .unwrap();
        // An injected covered core death is an anomaly under
        // --watchdog-fail: the command errors (non-zero process exit).
        let err = run(&[
            "count",
            &path,
            "--colors",
            "3",
            "--faults",
            "seed=3,kill=2@3",
            "--spares",
            "2",
            "--watchdog-fail",
        ])
        .unwrap_err();
        assert!(err.contains("--watchdog-fail"), "got: {err}");
        assert!(err.contains("dpu_death"), "got: {err}");
        // Without the flag the same faulted run still succeeds.
        run(&[
            "count",
            &path,
            "--colors",
            "3",
            "--faults",
            "seed=3,kill=2@3",
            "--spares",
            "2",
            "--watchdog-straggler",
            "4.0",
        ])
        .unwrap();
        // Dynamic drives the watchdog between updates.
        let err = run(&[
            "dynamic",
            &path,
            "--batches",
            "2",
            "--colors",
            "3",
            "--faults",
            "seed=3,kill=2@3",
            "--spares",
            "2",
            "--watchdog-fail",
        ])
        .unwrap_err();
        assert!(err.contains("--watchdog-fail"), "got: {err}");
        // --metrics-out alone also runs the watchdog between updates, so
        // the death lands on the stream as an `anomaly` event.
        let metrics = tmp("w1.dynamic.jsonl");
        run(&[
            "dynamic",
            &path,
            "--batches",
            "2",
            "--colors",
            "3",
            "--faults",
            "seed=3,kill=2@3",
            "--spares",
            "2",
            "--metrics-out",
            &metrics,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        let events = pim_metrics::parse_jsonl(&text).unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.kind == "anomaly" && e.str_field("anomaly_kind") == "dpu_death"),
            "no dpu_death anomaly in the dynamic stream"
        );
    }

    #[test]
    fn prom_lint_accepts_captures_and_rejects_corruption() {
        let path = tmp("pl1.txt");
        let metrics = tmp("pl1.prom");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "80",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&[
            "count",
            &path,
            "--colors",
            "2",
            "--metrics-out",
            &metrics,
            "--metrics-format",
            "prom",
        ])
        .unwrap();
        run(&["prom-lint", &metrics]).unwrap();
        let bad = tmp("pl1.bad.prom");
        std::fs::write(&bad, "pim_thing{label=\"x\" 3\n").unwrap();
        assert!(run(&["prom-lint", &bad]).is_err());
        assert!(run(&["prom-lint", "/nonexistent.prom"]).is_err());
    }

    #[test]
    fn metrics_summary_by_rank_breaks_down_sharded_streams() {
        let path = tmp("br1.txt");
        let metrics = tmp("br1.jsonl");
        run(&[
            "generate",
            "er",
            &path,
            "--nodes",
            "120",
            "--probability",
            "0.1",
        ])
        .unwrap();
        run(&[
            "dynamic",
            &path,
            "--batches",
            "2",
            "--colors",
            "3",
            "--ranks",
            "2",
            "--metrics-out",
            &metrics,
        ])
        .unwrap();
        run(&["metrics-summary", &metrics, "--by-rank"]).unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        let events = pim_metrics::parse_jsonl(&text).unwrap();
        let s = pim_metrics::summarize(&events);
        assert_eq!(s.by_rank.len(), 2, "both ranks must appear");
        assert!(s.by_rank.values().all(|a| a.events > 0));
    }

    #[test]
    fn profile_requires_a_graph() {
        assert!(run(&["profile"]).is_err());
        assert!(run(&["profile", "--graph", "/nonexistent.txt"]).is_err());
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&["count"]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["generate", "nope", "/tmp/x"]).is_err());
        assert!(run(&["count", "/nonexistent/graph.txt"]).is_err());
    }

    #[test]
    fn help_prints() {
        run(&["help"]).unwrap();
    }

    #[test]
    fn serve_runs_a_session_and_drains_on_shutdown() {
        use std::io::{BufRead, BufReader, Write};

        // Find a free port, then hand it to the daemon.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let addr_s = addr.to_string();
        let daemon = std::thread::spawn(move || {
            run(&[
                "serve",
                &addr_s,
                "--ranks",
                "1",
                "--rank-dpus",
                "64",
                "--workers",
                "2",
            ])
        });
        // The daemon needs a beat to bind; retry the connect.
        let mut stream = None;
        for _ in 0..100 {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let stream = stream.expect("daemon never bound");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut talk = |frame: &str| -> String {
            writeln!(writer, "{frame}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        assert!(talk(r#"{"op":"ping"}"#).contains("\"ok\":true"));
        let created = talk(r#"{"op":"create-session","colors":2,"seed":7,"backend":"functional"}"#);
        assert!(created.contains("\"ok\":true"), "got: {created}");
        let appended = talk(r#"{"op":"append-edges","session":1,"edges":[[0,1],[1,2],[0,2]]}"#);
        assert!(appended.contains("\"appended\":3"), "got: {appended}");
        let counted = talk(r#"{"op":"query-count","session":1}"#);
        assert!(counted.contains("\"triangles\":1"), "got: {counted}");
        assert!(talk(r#"{"op":"shutdown"}"#).contains("\"draining\":true"));
        daemon.join().unwrap().unwrap();
    }
}
