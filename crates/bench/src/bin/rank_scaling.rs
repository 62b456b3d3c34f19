//! Rank scaling: the multi-rank capacity story on the fig6 datasets.
//!
//! Each rank is deliberately small (640 PIM cores, a quarter of the
//! paper's machine) so the feasible color count is budget-limited: at
//! R = 1 only C = 14 fits, and adding ranks grows the triplet budget
//! linearly, raising C and shrinking the `6|E|/C²` per-core load. Every
//! configuration comes from [`pim_tc::plan_capacity`] — the same planner
//! behind `pimtc count --auto` — and exact runs are checked against the
//! measured CPU count.

use pim_baselines::cpu_count;
use pim_bench::{bank_max_capacity, fmt_secs, Harness, MdTable};
use pim_graph::datasets::DatasetId;
use pim_graph::stats::graph_stats;
use pim_sim::PimConfig;
use pim_tc::{Capture, ExecBackend, TcConfig};
use serde::Serialize;
use std::time::Instant;

/// Per-rank machine shape: a quarter of the paper's 2560-core system, so
/// rank count is what buys capacity.
const RANK_DPUS: usize = 640;

/// Rank counts swept per dataset.
const RANKS: [u32; 3] = [1, 2, 4];

#[derive(Serialize)]
struct Row {
    graph: &'static str,
    ranks: u32,
    colors: u32,
    partitions: u64,
    capacity: u64,
    uniform_p: f64,
    exact: bool,
    triangles: u64,
    modeled_secs: f64,
    wall_secs: f64,
    speedup_vs_r1: f64,
}

fn main() {
    let harness = Harness::from_env();
    let pim = PimConfig {
        total_dpus: RANK_DPUS,
        ..PimConfig::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut table = MdTable::new([
        "Graph",
        "Ranks",
        "C",
        "Partitions",
        "M/core",
        "p",
        "Exact",
        "Modeled",
        "Wall",
        "Speedup",
    ]);
    for id in DatasetId::ALL {
        let g = harness.dataset(id);
        let s = graph_stats(&g);
        let expect = cpu_count(&g).triangles;
        let mut r1_modeled = 0.0;
        for ranks in RANKS {
            let plan = pim_tc::plan_capacity(&s, &pim, ranks).unwrap();
            // The planner's C / p / ranks drive the run; the reservoir is
            // sized from the true per-core loads (a cheap host pre-pass,
            // like every exact experiment here) because the expected-max
            // bound `6|E|/C²` is exceeded on structured graphs.
            let seed = TcConfig::builder().build().unwrap().seed;
            let true_max = pim_tc::host::dpu_loads(g.edges(), plan.colors, seed)
                .into_iter()
                .max()
                .unwrap_or(0);
            let remap_cap = plan.misra_gries.map(|m| m.t as u64).unwrap_or(0);
            let capacity = (true_max + 64)
                .min(bank_max_capacity(pim, 2048, remap_cap))
                .max(3);
            let config = plan
                .to_builder()
                .backend(ExecBackend::Timed)
                .pim(pim)
                .sample_capacity(capacity)
                .stage_edges(2048)
                .build()
                .unwrap();
            let started = Instant::now();
            let profile = pim_tc::count_triangles_with(&g, &config, Capture::default()).unwrap();
            let result = profile.result;
            let wall_secs = started.elapsed().as_secs_f64();
            let modeled_secs = result.times.total();
            if ranks == 1 {
                r1_modeled = modeled_secs;
            }
            if plan.uniform_p == 1.0 && capacity > true_max {
                assert!(
                    result.exact,
                    "{}@{ranks}: unsampled run overflowed",
                    id.name()
                );
                assert_eq!(result.rounded(), expect, "{}@{ranks}", id.name());
            }
            assert_eq!(profile.per_rank.len(), config.effective_ranks() as usize);
            let speedup = if modeled_secs > 0.0 {
                r1_modeled / modeled_secs
            } else {
                1.0
            };
            eprintln!(
                "[rank_scaling] {}@{ranks}: C={} M={} p={:.3} modeled {:.4}s wall {:.2}s",
                id.name(),
                plan.colors,
                capacity,
                plan.uniform_p,
                modeled_secs,
                wall_secs
            );
            table.row([
                id.name().to_string(),
                ranks.to_string(),
                plan.colors.to_string(),
                plan.partitions.to_string(),
                capacity.to_string(),
                format!("{:.3}", plan.uniform_p),
                if result.exact { "yes" } else { "no" }.to_string(),
                fmt_secs(modeled_secs),
                fmt_secs(wall_secs),
                format!("{speedup:.2}x"),
            ]);
            rows.push(Row {
                graph: id.name(),
                ranks,
                colors: plan.colors,
                partitions: plan.partitions,
                capacity,
                uniform_p: plan.uniform_p,
                exact: result.exact,
                triangles: result.rounded(),
                modeled_secs,
                wall_secs,
                speedup_vs_r1: speedup,
            });
        }
    }
    let md = format!(
        "# Rank scaling: planner-driven runs at R = 1, 2, 4 ({RANK_DPUS} cores/rank)\n\n\
         Each rank is a quarter of the paper's machine, so the triplet\n\
         budget — and with it the feasible color count C — grows with the\n\
         rank count, while the expected per-core load 6|E|/C² shrinks.\n\
         Configurations come from `pim_tc::plan_capacity` (the `--auto`\n\
         planner); exact rows are verified against the measured CPU\n\
         count. Modeled times come from the UPMEM-like simulator's cost\n\
         model; Wall is this host's end-to-end run time.\n\n{}\n\
         Regenerate with:\n\n\
         ```\n\
         cargo run --release -p pim-bench --bin rank_scaling\n\
         ```\n",
        table.render()
    );
    println!("{md}");
    harness.save("rank_scaling", &md, &rows);
}
