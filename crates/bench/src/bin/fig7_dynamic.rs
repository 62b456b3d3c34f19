//! Figure 7: dynamic-graph comparison — cumulative time over 10 COO
//! updates.
//!
//! The paper's headline result: splitting its PIM-worst-case graph
//! (WikipediaEdit; `hyperlink` here) into 10 batches and recounting after
//! each, the CPU implementation pays a full COO→CSR conversion of the
//! *entire accumulated graph* per update, while GPU and PIM integrate the
//! update into their resident representations and win on cumulative time.

use pim_baselines::dynamic::{cpu_dynamic, gpu_dynamic, pim_dynamic_with, DynamicRun};
use pim_baselines::GpuModel;
use pim_bench::{fmt_secs, pim_config, Harness, MdTable};
use pim_graph::datasets::DatasetId;
use pim_metrics::{HealthSink, HealthState, MetricsHub, MetricsServer};
use serde::Serialize;
use std::sync::Arc;

const COLORS: u32 = 11;
const UPDATES: usize = 10;

#[derive(Serialize)]
struct Row {
    update: usize,
    cpu_cumulative: f64,
    gpu_cumulative: f64,
    pim_cumulative: f64,
    triangles: f64,
}

fn main() {
    let harness = Harness::from_env();
    let g = harness.dataset(DatasetId::HyperlinkSkewed);
    let batches = g.split_batches(UPDATES);

    let cpu = cpu_dynamic(&batches);
    let gpu = gpu_dynamic(&batches, &GpuModel::default());
    let config = pim_config(COLORS, &g)
        .misra_gries(1024, 64)
        .build()
        .unwrap();

    // PIM_TC_SERVE_METRICS=ADDR exposes the PIM run's live registry over
    // HTTP while it executes (GET /metrics, /healthz) and writes the
    // final scrape next to the figure — the CI scrape-smoke job curls it
    // mid-run and lints the snapshot. Rows are identical either way.
    let serve = std::env::var("PIM_TC_SERVE_METRICS")
        .ok()
        .filter(|s| !s.is_empty());
    let (hub, mut server) = match &serve {
        Some(addr) => {
            let hub = Arc::new(MetricsHub::new());
            let health = Arc::new(HealthState::new());
            hub.add_sink(Box::new(HealthSink::new(Arc::clone(&health))));
            let server = MetricsServer::start(addr, Arc::clone(&hub), health)
                .expect("PIM_TC_SERVE_METRICS: cannot start exporter");
            eprintln!(
                "[fig7] serving live telemetry on http://{}/metrics",
                server.addr()
            );
            (Some(hub), Some(server))
        }
        None => (None, None),
    };
    let run = DynamicRun {
        capture: pim_tc::Capture {
            metrics: hub.clone(),
        },
        ..DynamicRun::default()
    };
    let (pim, _report) = pim_dynamic_with(&batches, &config, run).unwrap();
    if let Some(hub) = &hub {
        std::fs::create_dir_all(&harness.results_dir).expect("create results dir");
        let snap = harness.results_dir.join("fig7_dynamic.prom");
        std::fs::write(&snap, hub.render_prometheus()).expect("write prom snapshot");
        eprintln!("[fig7] final scrape written to {}", snap.display());
    }
    if let Some(server) = &mut server {
        server.shutdown();
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut table = MdTable::new([
        "Update",
        "CPU cumulative (measured)",
        "GPU cumulative (modeled)",
        "PIM cumulative (modeled)",
    ]);
    for i in 0..UPDATES {
        table.row([
            (i + 1).to_string(),
            fmt_secs(cpu[i].cumulative_secs),
            fmt_secs(gpu[i].cumulative_secs),
            fmt_secs(pim[i].cumulative_secs),
        ]);
        rows.push(Row {
            update: i + 1,
            cpu_cumulative: cpu[i].cumulative_secs,
            gpu_cumulative: gpu[i].cumulative_secs,
            pim_cumulative: pim[i].cumulative_secs,
            triangles: pim[i].triangles,
        });
        eprintln!(
            "[fig7] update {}: CPU {:.3}s GPU {:.3}s PIM {:.3}s ({} triangles)",
            i + 1,
            cpu[i].cumulative_secs,
            gpu[i].cumulative_secs,
            pim[i].cumulative_secs,
            pim[i].triangles.round()
        );
    }
    let final_cpu = cpu.last().unwrap();
    let final_pim = pim.last().unwrap();
    assert!(
        (final_cpu.triangles - final_pim.triangles).abs() < 0.5,
        "CPU and PIM disagree on the final count"
    );
    let md = format!(
        "# Figure 7: dynamic updates on `hyperlink` ({UPDATES} batches, C = {COLORS})\n\n\
         Cumulative time to process every update so far and recount. The\n\
         CPU rebuilds CSR from the full accumulated COO each update; GPU\n\
         and PIM append into resident state (§4.6).\n\n{}\n\
         Final count: {} triangles (all systems agree).\n\n\
         PIM vs CPU cumulative speedup after update {UPDATES}: {:.2}x\n\n\
         The PIM session routes each batch through the reused-scratch\n\
         batched pipeline and recounts with the adaptive intersection\n\
         kernel (docs/PERFORMANCE.md). Regenerate with:\n\n\
         ```\n\
         cargo run --release -p pim-bench --bin fig7_dynamic\n\
         ```\n",
        table.render(),
        final_pim.triangles.round(),
        final_cpu.cumulative_secs / final_pim.cumulative_secs
    );
    println!("{md}");
    harness.save("fig7_dynamic", &md, &rows);
}
