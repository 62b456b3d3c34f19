//! The CI perf-regression gate: re-runs what the recorded baseline
//! (`results/bench_baseline.json`) gates — the `fig6_static` PIM
//! configuration per graph, the `fig7_dynamic` workload and the routing
//! throughput floor — and compares the fresh run against it, exiting
//! non-zero past the fail thresholds. See `docs/OBSERVABILITY.md` for the
//! tolerance classes and default thresholds.
//!
//! ```text
//! bench_gate [--baseline PATH] [--counter-warn F] [--counter-fail F]
//!            [--time-warn F] [--time-fail F]
//! bench_gate --print-baseline
//! ```
//!
//! Each gated run also streams its live metric capture to
//! `results/bench_gate_<graph>.metrics.jsonl` (uploadable as a CI
//! artifact) and the verdicts land in `results/bench_gate.{md,json}`.

use pim_baselines::dynamic::{cpu_dynamic, gpu_dynamic, pim_dynamic_with, DynamicRun};
use pim_baselines::GpuModel;
use pim_bench::gate::{compare, gate_failed, read, render, Tolerances};
use pim_bench::routing::{measure_routing_throughput, RoutingWorkload};
use pim_bench::{pim_config, Harness, MdTable};
use pim_graph::datasets::DatasetId;
use pim_metrics::{parse_jsonl, JsonlSink, MetricsHub};
use pim_tc::Capture;
use serde::Serialize;
use serde_json::{json, Value};
use std::sync::Arc;

const COLORS: u32 = 23; // fig6_static's 2300-core configuration
const FIG7_COLORS: u32 = 11; // fig7_dynamic's configuration
const FIG7_UPDATES: usize = 10;
/// Timed routing passes per gate run; best-of filters scheduler noise.
const ROUTING_SAMPLES: usize = 7;
/// `--print-baseline` records the routing floor as the measured best
/// scaled by this. The check is one-sided (slowdown-only), so the floor
/// deliberately sits below the recording machine's peak to absorb
/// cross-runner variance; see docs/PERFORMANCE.md for the ratchet
/// procedure.
const ROUTING_FLOOR_SCALE: f64 = 0.9;

/// Measures routing throughput on the canonical gate workload (the same
/// definition the `routing_throughput` criterion bench uses) and returns
/// the `routing_throughput` section, its floor at `floor_scale` × the
/// measured best.
fn run_routing(floor_scale: f64) -> Value {
    eprintln!("[bench_gate] measuring routing throughput");
    let best = measure_routing_throughput(&RoutingWorkload::gate(), ROUTING_SAMPLES);
    json!({
        "edges_per_sec": best * floor_scale,
        "measured_best": best,
        "colors": pim_bench::routing::GATE_COLORS,
        "nodes": pim_bench::routing::GATE_NODES,
        "seed": pim_bench::routing::GATE_SEED,
    })
}

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_f64(name: &str, default: f64) -> f64 {
    flag(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name}: not a number: {v:?}"))
        })
        .unwrap_or(default)
}

/// A metrics hub streaming to `results/bench_gate_<name>.metrics.jsonl`,
/// and the file's path.
fn metrics_hub(harness: &Harness, name: &str) -> (Arc<MetricsHub>, std::path::PathBuf) {
    std::fs::create_dir_all(&harness.results_dir).expect("create results dir");
    let path = harness
        .results_dir
        .join(format!("bench_gate_{name}.metrics.jsonl"));
    let hub = Arc::new(MetricsHub::new());
    hub.add_sink(Box::new(
        JsonlSink::create(&path).expect("create metrics jsonl"),
    ));
    (hub, path)
}

/// Re-runs one dataset in the `fig6_static` configuration and returns its
/// baseline-shaped row. The run's live metric capture streams to
/// `results/bench_gate_<graph>.metrics.jsonl`.
fn run_fig6(harness: &Harness, id: DatasetId) -> Value {
    let graph = id.name();
    eprintln!("[bench_gate] running {graph}");
    let g = harness.dataset(id);
    let config = pim_config(COLORS, &g)
        .build()
        .expect("the fig6 gate configuration builds");
    let (hub, metrics_path) = metrics_hub(harness, graph);
    let capture = Capture {
        metrics: Some(Arc::clone(&hub)),
    };
    let profile =
        pim_tc::count_triangles_with(&g, &config, capture).expect("the fig6 gate run counts");
    hub.flush().expect("flush metrics");
    if harness.emit_profile {
        // The capture just written holds the run's whole timeline.
        let text = std::fs::read_to_string(&metrics_path).expect("read metrics jsonl");
        let events = parse_jsonl(&text).expect("parse metrics jsonl");
        harness.save_profile(&format!("bench_gate_{graph}"), &profile, &events);
    }

    let result = &profile.result;
    let report = &profile.report;
    let mut kernel_cycles: Vec<(String, Value)> = Vec::new();
    for k in &report.kernels {
        let phase = k.phase.metric_name();
        match kernel_cycles.iter_mut().find(|(p, _)| p == phase) {
            Some((_, Value::U64(cycles))) => *cycles += k.max_cycles,
            _ => kernel_cycles.push((phase.to_string(), Value::U64(k.max_cycles))),
        }
    }
    json!({
        "graph": graph,
        "triangles": result.rounded(),
        "pim_phases": json!({
            "times": result.times,
            "nr_dpus": result.nr_dpus,
            "edges_routed": result.edges_routed,
            "transfer_bytes": report.total_transfer_bytes,
            "total_instructions": report.total_instructions,
            "total_dma_bytes": report.total_dma_bytes,
            "kernel_cycles": Value::Object(kernel_cycles),
        }),
    })
}

/// Re-runs the Figure 7 dynamic workload (same shape as the
/// `fig7_dynamic` binary) and returns the `fig7_dynamic` section. The
/// PIM session's live metric capture streams to
/// `results/bench_gate_fig7_dynamic.metrics.jsonl`.
fn run_fig7(harness: &Harness) -> Value {
    eprintln!("[bench_gate] running fig7_dynamic");
    let g = harness.dataset(DatasetId::HyperlinkSkewed);
    let batches = g.split_batches(FIG7_UPDATES);
    let cpu = cpu_dynamic(&batches);
    let gpu = gpu_dynamic(&batches, &GpuModel::default());
    let config = pim_config(FIG7_COLORS, &g)
        .misra_gries(1024, 64)
        .build()
        .unwrap();
    let (hub, _) = metrics_hub(harness, "fig7_dynamic");
    let run = DynamicRun {
        capture: Capture {
            metrics: Some(Arc::clone(&hub)),
        },
        ..DynamicRun::default()
    };
    let (pim, report) = pim_dynamic_with(&batches, &config, run).unwrap();
    hub.flush().expect("flush metrics");
    let rows: Vec<Value> = (0..FIG7_UPDATES)
        .map(|i| {
            json!({
                "update": i as u64 + 1,
                "triangles": pim[i].triangles.round() as u64,
                "cpu_cumulative": cpu[i].cumulative_secs,
                "gpu_cumulative": gpu[i].cumulative_secs,
                "pim_cumulative": pim[i].cumulative_secs,
            })
        })
        .collect();
    json!({
        "rows": rows,
        "transfer_bytes": report.total_transfer_bytes,
        "total_instructions": report.total_instructions,
        "total_dma_bytes": report.total_dma_bytes,
    })
}

#[derive(Serialize)]
struct CheckRecord {
    graph: String,
    metric: String,
    baseline: f64,
    observed: f64,
    rel: f64,
    verdict: String,
}

/// Self-contained cluster-parity check: an R = 1 [`pim_sim::RankCluster`] run must
/// be bit-identical to driving the backend directly — counts, per-DPU
/// reports, system-report totals and kernel aggregates. No recorded baseline is needed; the
/// plain run *is* the baseline. A mismatch fails the gate.
fn run_cluster_parity(harness: &Harness) {
    use pim_sim::{FunctionalBackend, RankCluster};
    eprintln!("[bench_gate] checking R=1 cluster parity against the plain backend");
    let g = harness.dataset(DatasetId::KroneckerSmall);
    let config = pim_config(11, &g).build().unwrap();

    let mut plain = pim_tc::TcSession::<FunctionalBackend>::start_with(&config).unwrap();
    plain.append(g.edges()).unwrap();
    let plain_result = plain.count().unwrap();
    let plain_report = plain.system_report();

    let mut cluster =
        pim_tc::TcSession::<RankCluster<FunctionalBackend>>::start_cluster(&config).unwrap();
    cluster.append(g.edges()).unwrap();
    let cluster_result = cluster.count().unwrap();
    let cluster_report = cluster.system_report();

    assert_eq!(
        plain_result.estimate, cluster_result.estimate,
        "cluster parity: counts diverged"
    );
    assert_eq!(
        plain_result.dpu_reports, cluster_result.dpu_reports,
        "cluster parity: per-DPU reports diverged"
    );
    for (label, a, b) in [
        (
            "transfer_bytes",
            plain_report.total_transfer_bytes,
            cluster_report.total_transfer_bytes,
        ),
        (
            "instructions",
            plain_report.total_instructions,
            cluster_report.total_instructions,
        ),
        (
            "dma_bytes",
            plain_report.total_dma_bytes,
            cluster_report.total_dma_bytes,
        ),
    ] {
        assert_eq!(a, b, "cluster parity: {label} diverged");
    }
    assert!(
        !plain_report.kernels.is_empty(),
        "cluster parity: no kernels"
    );
    assert_eq!(
        plain_report.kernels, cluster_report.kernels,
        "cluster parity: kernels diverged"
    );
    eprintln!("[bench_gate] cluster parity ok");
}

fn main() {
    let harness = Harness::from_env();
    let defaults = Tolerances::default();
    let tol = Tolerances {
        counter_warn: flag_f64("--counter-warn", defaults.counter_warn),
        counter_fail: flag_f64("--counter-fail", defaults.counter_fail),
        time_warn: flag_f64("--time-warn", defaults.time_warn),
        time_fail: flag_f64("--time-fail", defaults.time_fail),
    };
    // Baseline (re-)recording helper: run the fig7 and routing workloads
    // and print both sections ready to paste into the baseline file (the
    // fig6 rows come from `fig6_static --profile`).
    if std::env::args().any(|a| a == "--print-baseline") {
        let sections = json!({
            "fig7_dynamic": run_fig7(&harness),
            "routing_throughput": run_routing(ROUTING_FLOOR_SCALE),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&sections).expect("a JSON value serializes")
        );
        return;
    }

    let baseline_path =
        flag("--baseline").unwrap_or_else(|| "results/bench_baseline.json".to_string());
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let baseline = read(&text).unwrap_or_else(|e| panic!("{baseline_path}: {e}"));

    run_cluster_parity(&harness);

    // Re-run what the baseline gates, in its order, into a document of the
    // same shape; both sides then go through the one reader.
    let mut graphs: Vec<&str> = baseline.iter().map(|q| q.graph.as_str()).collect();
    graphs.dedup();
    let mut rows = Vec::new();
    let mut sections = Vec::new();
    for graph in graphs {
        match graph {
            "fig7_dynamic" => sections.push((graph.to_string(), run_fig7(&harness))),
            "routing_throughput" => sections.push((graph.to_string(), run_routing(1.0))),
            _ => match DatasetId::ALL.iter().copied().find(|d| d.name() == graph) {
                Some(id) => rows.push(run_fig6(&harness, id)),
                None => eprintln!("[bench_gate] unknown baseline graph {graph:?}, skipping"),
            },
        }
    }
    sections.insert(0, ("rows".to_string(), Value::Array(rows)));
    let fresh = serde_json::to_string(&Value::Object(sections)).expect("a JSON value serializes");
    let observed = read(&fresh).expect("fresh run reads as a baseline document");

    let checks = compare(&baseline, &observed, &tol);
    let report_text = render(&checks);
    print!("{report_text}");

    let mut table = MdTable::new(["Graph", "Metric", "Baseline", "Observed", "Δ", "Verdict"]);
    let mut records = Vec::new();
    for c in &checks {
        let verdict = c.verdict.label();
        table.row([
            c.graph.clone(),
            c.metric.clone(),
            format!("{:.6e}", c.baseline),
            format!("{:.6e}", c.observed),
            format!("{:+.2}%", (c.observed - c.baseline) / c.baseline * 100.0),
            verdict.to_string(),
        ]);
        records.push(CheckRecord {
            graph: c.graph.clone(),
            metric: c.metric.clone(),
            baseline: c.baseline,
            observed: c.observed,
            rel: c.rel,
            verdict: verdict.to_string(),
        });
    }
    let md = format!(
        "# Bench gate: fresh fig6_static run vs {baseline_path}\n\n\
         Tolerances: counters warn {:.0}% / fail {:.0}%, phase seconds warn \
         {:.0}% / fail {:.0}%.\n\n{}\n{}",
        tol.counter_warn * 100.0,
        tol.counter_fail * 100.0,
        tol.time_warn * 100.0,
        tol.time_fail * 100.0,
        report_text,
        table.render()
    );
    harness.save("bench_gate", &md, &records);

    if gate_failed(&checks) {
        eprintln!("[bench_gate] FAILED — see report above");
        std::process::exit(1);
    }
    eprintln!("[bench_gate] passed");
}
