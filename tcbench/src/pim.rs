//! The three workloads that drive `TcSession` directly: `static-exact`,
//! `ingest-sampled` and `dynamic-skew`.
//!
//! A rep is one session from start to last count: size the banks
//! (`pim_tc::host::dpu_loads`, exact workloads only), start the cluster,
//! then append and count once per batch. An operation is one
//! append + count; static and sampled reps have one batch, the dynamic
//! stream has ten.

use crate::layers::{run_metrics, CallKind, CallLog, Layers, Spans};
use crate::serve::ServerLayer;
use crate::stats::{enough_setups, median, peak_rss_mb, Tally};
use crate::{derive_seed, Metric, Opts, Outcome};
use pim_graph::gen::chung_lu::ChungLuParams;
use pim_graph::{CooGraph, Edge};
use pim_metrics::MetricsHub;
use pim_sim::{PimConfig, RankCluster, TimedBackend};
use pim_tc::{ExecBackend, TcConfig, TcError, TcResult, TcSession};
use std::sync::Arc;
use std::time::Instant;

/// Largest relative error a sampled estimate may show and still pass.
/// With 512-edge reservoirs the `ingest-sampled` estimate's error had a
/// standard deviation of about 4% over seeds 1–16 (worst 7.7%); a broken
/// correction is off by a factor, not by a quarter.
const SAMPLED_REL_TOL: f64 = 0.25;

/// The input graph of a workload.
enum Graph {
    /// R-MAT with the Graph500 / kron-l quadrant weights.
    Rmat { scale: u32, edge_factor: u32 },
    /// Chung–Lu power law with a capped hub.
    ChungLu(ChungLuParams),
}

/// One session-driven workload.
pub struct PimWorkload {
    graph: Graph,
    colors: u32,
    ranks: u32,
    dpus_per_rank: usize,
    /// Fixed per-core reservoir; `None` sizes it from the true maximum
    /// per-core load, so every count is exact.
    sample_capacity: Option<u64>,
    misra_gries: Option<(usize, usize)>,
    batches: usize,
}

impl PimWorkload {
    /// The workload called `name` at full or `--quick` size.
    pub fn named(name: &str, quick: bool) -> Option<PimWorkload> {
        let rmat = |scale, edge_factor| Graph::Rmat { scale, edge_factor };
        Some(match (name, quick) {
            ("static-exact", false) => PimWorkload {
                graph: rmat(15, 16),
                colors: 23,
                ranks: 1,
                dpus_per_rank: 2300,
                sample_capacity: None,
                misra_gries: None,
                batches: 1,
            },
            ("static-exact", true) => PimWorkload {
                graph: rmat(9, 8),
                colors: 4,
                dpus_per_rank: 20,
                ..PimWorkload::named(name, false)?
            },
            ("ingest-sampled", false) => PimWorkload {
                graph: rmat(17, 16),
                colors: 23,
                ranks: 4,
                dpus_per_rank: 640,
                sample_capacity: Some(512),
                misra_gries: None,
                batches: 1,
            },
            ("ingest-sampled", true) => PimWorkload {
                graph: rmat(10, 8),
                colors: 4,
                ranks: 2,
                dpus_per_rank: 10,
                sample_capacity: Some(1536),
                ..PimWorkload::named(name, false)?
            },
            ("dynamic-skew", false) => PimWorkload {
                graph: Graph::ChungLu(ChungLuParams {
                    n: 80_000,
                    gamma: 2.1,
                    avg_degree: 12.0,
                    max_degree_frac: 0.15,
                }),
                colors: 11,
                ranks: 1,
                dpus_per_rank: 286,
                sample_capacity: None,
                misra_gries: Some((1024, 64)),
                batches: 10,
            },
            ("dynamic-skew", true) => PimWorkload {
                graph: Graph::ChungLu(ChungLuParams {
                    n: 2_000,
                    gamma: 2.1,
                    avg_degree: 8.0,
                    max_degree_frac: 0.15,
                }),
                colors: 4,
                dpus_per_rank: 20,
                misra_gries: Some((64, 8)),
                batches: 4,
                ..PimWorkload::named(name, false)?
            },
            _ => return None,
        })
    }

    fn exact(&self) -> bool {
        self.sample_capacity.is_none()
    }

    /// Generates and preprocesses the input graph for `seed`.
    ///
    /// The graph's shape is the same for every seed: one fixed generator
    /// draw per workload. The seed relabels its vertices and orders its
    /// edges, so each seed feeds the program a different edge stream
    /// whose colors, core loads, reservoir draws and heavy hitters all
    /// differ, while the triangle count and the work stay the same.
    /// Separate generator draws per seed change the work itself: over ten
    /// draws of the `dynamic-skew` graph the modeled time ranged from
    /// 0.77 s to 1.82 s, which would drown a change under test.
    fn generate(&self, seed: u64) -> CooGraph {
        const SHAPE_SEED: u64 = 0x5EED_0F7C;
        let raw = match self.graph {
            Graph::Rmat { scale, edge_factor } => {
                pim_graph::gen::rmat(scale, edge_factor, 0.57, 0.19, 0.19, SHAPE_SEED)
            }
            Graph::ChungLu(params) => pim_graph::gen::chung_lu(params, SHAPE_SEED),
        };
        let mut g = pim_graph::prep::relabel_random(&raw, derive_seed(seed, 0));
        pim_graph::prep::preprocess(&mut g, derive_seed(seed, 1));
        g
    }

    /// Per-core reservoir capacity: the fixed one, or the true maximum
    /// per-core load plus slack from a routing pre-pass over the whole
    /// stream (`dpu_loads`), so that exact runs never overflow.
    fn capacity(&self, input: &Input) -> u64 {
        self.sample_capacity.unwrap_or_else(|| {
            let max_load = pim_tc::host::dpu_loads(&input.edges, self.colors, input.config_seed)
                .into_iter()
                .max()
                .unwrap_or(0);
            (max_load + 64).max(3)
        })
    }

    /// Starts a session with per-core `capacity`.
    fn start(
        &self,
        capacity: u64,
        config_seed: u64,
        hardened: bool,
        hub: Arc<MetricsHub>,
    ) -> Result<TcSession<RankCluster<TimedBackend>>, TcError> {
        let mut builder = TcConfig::builder()
            .colors(self.colors)
            .seed(config_seed)
            .ranks(self.ranks)
            .backend(ExecBackend::Timed)
            .pim(PimConfig::default().with_dpus(self.dpus_per_rank))
            .stage_edges(2048)
            .sample_capacity(capacity)
            .hardened(hardened);
        if let Some((k, t)) = self.misra_gries {
            builder = builder.misra_gries(k, t);
        }
        let config = builder.build()?;
        TcSession::start_cluster_metered(&config, Some(hub))
    }
}

/// Everything measured in one rep.
struct Rep {
    setup_s: f64,
    /// Wall seconds of each append + count.
    ops: Vec<f64>,
    /// Wall seconds of each append alone.
    appends: Vec<f64>,
    modeled_s: f64,
    /// The last count's estimate.
    estimate: f64,
    tally: Tally,
}

/// Inputs shared by every rep of a run.
struct Input {
    /// The preprocessed edge stream.
    edges: Vec<Edge>,
    /// Edges per append; the last batch may be shorter.
    batch_len: usize,
    /// Exact triangles after each batch, from `pim_baselines::cpu_count`.
    truth: Vec<u64>,
    config_seed: u64,
}

impl Input {
    fn batches(&self) -> std::slice::Chunks<'_, Edge> {
        self.edges.chunks(self.batch_len)
    }
}

/// Whether a count after some batch is right: exact workloads must match
/// the truth exactly, sampled ones within [`SAMPLED_REL_TOL`].
fn count_ok(exact: bool, result: &TcResult, truth: u64) -> bool {
    if exact {
        result.exact && result.rounded() == truth
    } else {
        rel_err(result.estimate, truth) <= SAMPLED_REL_TOL
    }
}

fn rel_err(estimate: f64, truth: u64) -> f64 {
    (estimate - truth as f64).abs() / (truth as f64).max(1.0)
}

/// Runs one rep. With `trace`, every call is recorded into `layers` and
/// `spans` under the span `parent`.
fn rep(
    w: &PimWorkload,
    input: &Input,
    hardened: bool,
    trace: Option<(&mut Layers, &mut Spans, u64)>,
) -> Rep {
    let hub = Arc::new(MetricsHub::new());
    let mut log = CallLog::new(&hub, trace.is_some());
    let mut out = Rep {
        setup_s: 0.0,
        ops: Vec::new(),
        appends: Vec::new(),
        modeled_s: 0.0,
        estimate: 0.0,
        tally: Tally::default(),
    };
    let (capacity, size_s) = log.time(CallKind::Size, || w.capacity(input));
    let (started, start_s) = log.time(CallKind::Start, || {
        w.start(capacity, input.config_seed, hardened, Arc::clone(&hub))
    });
    out.setup_s = size_s + start_s;
    let mut session = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[tcbench] session start failed: {e}");
            out.tally.record(false);
            return out;
        }
    };
    for (batch, &truth) in input.batches().zip(&input.truth) {
        let (appended, append_s) = log.time(CallKind::Append, || session.append(batch));
        let counted = appended.and_then(|()| {
            let (counted, count_s) = log.time(CallKind::Count, || session.count());
            counted.map(|r| (r, count_s))
        });
        let ok = match counted {
            Ok((result, count_s)) => {
                out.estimate = result.estimate;
                out.ops.push(append_s + count_s);
                out.appends.push(append_s);
                let ok = count_ok(w.exact(), &result, truth);
                if !ok {
                    eprintln!(
                        "[tcbench] wrong count: {} (exact: {}) vs {truth}",
                        result.estimate, result.exact
                    );
                }
                ok
            }
            Err(e) => {
                eprintln!("[tcbench] session op failed: {e}");
                false
            }
        };
        out.tally.record(ok);
        if !ok {
            break;
        }
    }
    out.modeled_s = log.modeled_s();
    if let Some((layers, spans, parent)) = trace {
        log.record_into(layers, spans, parent);
    }
    out
}

/// Runs the workload for `opts.seconds` (at least one rep; two when
/// traced, so that a traced rep has an untraced one to compare with).
pub fn run(w: &PimWorkload, name: &str, opts: &Opts) -> Outcome {
    let graph = w.generate(opts.seed);
    let batch_len = graph.num_edges().div_ceil(w.batches).max(1);
    let mut prefix = CooGraph::new();
    let truth = graph
        .edges()
        .chunks(batch_len)
        .map(|b| {
            prefix.extend_edges(b);
            pim_baselines::cpu_count(&prefix).triangles
        })
        .collect();
    drop(prefix);
    let input = Input {
        edges: graph.edges().to_vec(),
        batch_len,
        truth,
        config_seed: derive_seed(opts.seed, 2),
    };
    drop(graph);
    eprintln!(
        "[tcbench] {name}: {} edges in {} batch(es), {} triangles",
        input.edges.len(),
        input.truth.len(),
        input.truth.last().copied().unwrap_or(0)
    );

    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let root = spans.push(0, name, origin, origin);
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let (mut setups, mut ops, mut appends) = (Vec::new(), Vec::new(), Vec::new());
    let (mut eps, mut modeled, mut estimates) = (Vec::new(), Vec::new(), Vec::new());
    // Wall time of each whole rep, untraced and traced.
    let mut rep_walls = [Vec::new(), Vec::new()];
    let min_reps = if opts.trace { 2 } else { 1 };
    let mut reps = 0usize;
    while reps < min_reps || origin.elapsed().as_secs_f64() < opts.seconds {
        // Traced runs alternate untraced and traced reps, so the tracing
        // overhead is measured within the run.
        let traced = opts.trace && reps % 2 == 1;
        let r = if traced {
            let now = Instant::now();
            let id = spans.push(root, &format!("rep-{reps}"), now, now);
            let r = rep(w, &input, false, Some((&mut layers, &mut spans, id)));
            spans.end(id, Instant::now());
            r
        } else {
            rep(w, &input, false, None)
        };
        reps += 1;
        tally.absorb(r.tally);
        if r.tally.failed > 0 {
            continue;
        }
        setups.push(r.setup_s);
        let wall: f64 = r.ops.iter().sum();
        eprintln!(
            "[tcbench] {name} rep {reps}{}: {wall:.3} s, estimate {:.1} of {}",
            if traced { " (traced)" } else { "" },
            r.estimate,
            input.truth.last().copied().unwrap_or(0)
        );
        eps.push(input.edges.len() as f64 / wall);
        modeled.push(r.modeled_s);
        estimates.push(r.estimate);
        rep_walls[usize::from(traced)].push(wall);
        if !traced {
            ops.extend(r.ops);
            appends.extend(r.appends);
        }
    }
    spans.end(root, Instant::now());
    // Top up set-up samples with standalone ones.
    while !opts.trace && !enough_setups(&setups) {
        let t = Instant::now();
        let started = w.start(
            w.capacity(&input),
            input.config_seed,
            false,
            Arc::new(MetricsHub::new()),
        );
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = started {
            eprintln!("[tcbench] session start failed: {e}");
            tally.record(false);
            break;
        }
    }

    let truth = input.truth.last().copied().unwrap_or(0);
    let metrics = if opts.trace {
        let hardened_frac = if name == "ingest-sampled" {
            hardened_overhead(w, &input, median(&appends), &mut tally, median(&estimates))
        } else {
            0.0
        };
        let mut m = layers.metrics(rep_walls[1].len() as f64);
        m.extend(run_metrics(
            if w.exact() {
                0.0
            } else {
                rel_err(median(&estimates), truth)
            },
            median(&rep_walls[1]) / median(&rep_walls[0]) - 1.0,
            hardened_frac,
        ));
        m.extend(ServerLayer::default().metrics());
        if let Err(e) = spans.write(&opts.spans_path(name)) {
            eprintln!("[tcbench] cannot write spans: {e}");
        }
        m
    } else {
        vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("edges_per_s", median(&eps), "edges/s"),
            Metric::new("op_p50_ms", median(&ops) * 1e3, "ms"),
            Metric::new("modeled_s", median(&modeled), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Outcome { tally, metrics }
}

/// One extra rep on the hardened pipeline (checksummed staging, verified
/// transfers). Its estimate must be bit-identical to the plain one; the
/// result is the hardened append's wall time over the plain median, less
/// one.
fn hardened_overhead(
    w: &PimWorkload,
    input: &Input,
    plain_append: f64,
    tally: &mut Tally,
    plain_estimate: f64,
) -> f64 {
    let r = rep(w, input, true, None);
    let same = r.estimate.to_bits() == plain_estimate.to_bits();
    if !same {
        eprintln!("[tcbench] hardened estimate differs from the plain one");
    }
    tally.absorb(r.tally);
    tally.record(same);
    r.appends.first().map_or(0.0, |a| a / plain_append - 1.0)
}
