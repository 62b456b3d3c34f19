//! System introspection: print a run's metric event stream, inspect
//! per-core load balance, and read the modeled energy breakdown.
//!
//! Uses the simulator directly (the same APIs `pim_tc` builds on) so the
//! timeline is small and readable; for full pipeline runs the same data
//! is available via `TcResult` (`times`, `energy`, `dpu_reports`).
//!
//! Run with: `cargo run --release -p pim-tc-examples --bin system_introspection`

use pim_metrics::{MemorySink, MetricsHub};
use pim_sim::system::encode_slice;
use pim_sim::{CostModel, HostWrite, Phase, PimBackend, PimConfig, PimSystem, SystemReport};
use std::sync::Arc;

fn main() {
    // A 4-core system with a metrics hub recording every event.
    let config = PimConfig {
        total_dpus: 4,
        ..PimConfig::default()
    };
    let mut sys = PimSystem::allocate(4, config, CostModel::default()).expect("allocate");
    let hub = Arc::new(MetricsHub::new());
    let events = MemorySink::new();
    hub.add_sink(Box::new(events.clone()));
    sys.attach_metrics(hub);

    // Host → PIM: ship each core a different amount of work (deliberately
    // imbalanced, to show up in the report).
    sys.set_phase(Phase::SampleCreation);
    let payloads: Vec<Vec<u8>> = (1..=4u64)
        .map(|n| encode_slice(&(0..n * 1000).collect::<Vec<u64>>()))
        .collect();
    let writes: Vec<HostWrite> = (payloads.iter().enumerate())
        .map(|(dpu, data)| HostWrite {
            dpu,
            offset: 0,
            data,
        })
        .collect();
    sys.push(&writes).expect("transfer");

    // Kernel: each core sums its values through bounded WRAM buffers.
    sys.set_phase(Phase::TriangleCount);
    let sums = sys
        .execute(|ctx| {
            let n = (ctx.dpu_id() as u64 + 1) * 1000;
            let mut total = 0u64;
            let mut t = ctx.tasklet(0)?;
            let chunk = (t.wram_free() / 8 / 2).max(8);
            let mut buf = t.alloc_wram::<u64>(chunk)?;
            let mut pos = 0u64;
            while pos < n {
                let take = (chunk as u64).min(n - pos) as usize;
                t.mram_read(pos * 8, &mut buf[..take])?;
                t.charge(take as u64);
                total += buf[..take].iter().sum::<u64>();
                pos += take as u64;
            }
            t.mram_write_one(n * 8, total)?;
            Ok(total)
        })
        .expect("kernel");
    println!("per-core sums: {sums:?}\n");

    // 1. The event stream, as `--metrics-out` would write it; render it
    // with `pim_sim::chrome_trace` for chrome://tracing.
    println!("=== event stream ===");
    for e in events.events() {
        println!("{}", e.to_json_line());
    }

    // 2. Load balance.
    let report = SystemReport::capture(&sys);
    println!("\n=== activity report ===");
    for d in &report.per_dpu {
        println!(
            "DPU {}: {:>7} instr, {:>8} DMA bytes, {:>8} MRAM bytes",
            d.dpu, d.instructions, d.dma_bytes, d.mram_used
        );
    }
    println!(
        "imbalance (max/mean instructions): {:.2} — DPU 3 got 4x DPU 0's data",
        report.instruction_imbalance
    );

    // 3. Energy.
    let energy = sys.energy_report();
    println!("\n=== modeled energy ===");
    println!("instructions: {:.3e} J", energy.instr_j);
    println!("DMA traffic:  {:.3e} J", energy.dma_j);
    println!("transfers:    {:.3e} J", energy.transfer_j);
    println!("static:       {:.3e} J", energy.static_j);
    println!("total:        {:.3e} J", energy.total_j());

    // 4. Phase times (what the paper's plots are made of).
    let times = sys.phase_times();
    println!("\n=== modeled phase times ===");
    println!("setup:           {:.3} ms", times.setup * 1e3);
    println!("sample creation: {:.3} ms", times.sample_creation * 1e3);
    println!("triangle count:  {:.3} ms", times.triangle_count * 1e3);
}
