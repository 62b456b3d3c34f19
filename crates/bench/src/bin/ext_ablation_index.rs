//! Extension ablation (DESIGN.md §8): the region index table.
//!
//! §3.4 builds an index so a node's neighbor region is found with
//! O(log n) MRAM probes. This ablation runs the same count kernel with a
//! linear streaming lookup instead and compares modeled count time on one
//! DPU holding an entire (small) graph — quantifying what the index buys.

use pim_bench::{fmt_secs, Harness, MdTable};
use pim_graph::datasets::{DatasetId, Profile};
use pim_sim::system::encode_slice;
use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};
use pim_tc::kernel::count::{count_kernel_with, RegionLookup};
use pim_tc::kernel::layout::{Header, MramLayout};
use pim_tc::kernel::{edge_key, index, sort};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: &'static str,
    edges: usize,
    binary_secs: f64,
    linear_secs: f64,
    slowdown: f64,
}

/// Modeled triangle-count seconds for one lookup strategy.
fn modeled_count(keys: &[u64], lookup: RegionLookup) -> (u64, f64) {
    let config = PimConfig {
        total_dpus: 1,
        mram_capacity: (keys.len() as u64 * 24 + 65536).next_power_of_two(),
        ..PimConfig::default()
    };
    let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
    let layout = MramLayout::compute(config.mram_capacity, 8, 0, Some(keys.len() as u64)).unwrap();
    let hdr = Header {
        cap: layout.capacity,
        len: keys.len() as u64,
        ..Header::default()
    };
    sys.push(&[
        HostWrite {
            dpu: 0,
            offset: 0,
            data: &hdr.encode(),
        },
        HostWrite {
            dpu: 0,
            offset: layout.sample_off,
            data: &encode_slice(keys),
        },
    ])
    .unwrap();
    sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
    sys.execute(|ctx| index::index_kernel(ctx, &layout))
        .unwrap();
    let before = sys.phase_times().total();
    let count = sys
        .execute(|ctx| count_kernel_with(ctx, &layout, lookup))
        .unwrap()[0];
    (count, sys.phase_times().total() - before)
}

fn main() {
    let harness = Harness::from_env();
    // Single-DPU runs: always use test-profile-sized graphs (a full
    // paper-profile graph on one core would make the linear arm explode).
    let mut rows = Vec::new();
    let mut table = MdTable::new([
        "Graph",
        "|E|",
        "Count w/ index (modeled)",
        "Count w/ linear scan (modeled)",
        "Slowdown",
    ]);
    for id in [
        DatasetId::SocialModerate,
        DatasetId::KroneckerSmall,
        DatasetId::Brain,
    ] {
        let g = id.build(Profile::Test);
        let mut keys: Vec<u64> = g
            .edges()
            .iter()
            .map(|e| {
                let n = e.normalized();
                edge_key(n.u, n.v)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let (c1, binary_secs) = modeled_count(&keys, RegionLookup::BinarySearch);
        let (c2, linear_secs) = modeled_count(&keys, RegionLookup::LinearScan);
        assert_eq!(c1, c2, "{}: lookup strategy changed the count", id.name());
        let slowdown = linear_secs / binary_secs;
        eprintln!(
            "[ablation] {}: index {} vs linear {} ({slowdown:.1}x)",
            id.name(),
            fmt_secs(binary_secs),
            fmt_secs(linear_secs)
        );
        table.row([
            id.name().to_string(),
            keys.len().to_string(),
            fmt_secs(binary_secs),
            fmt_secs(linear_secs),
            format!("{slowdown:.1}x"),
        ]);
        rows.push(Row {
            graph: id.name(),
            edges: keys.len(),
            binary_secs,
            linear_secs,
            slowdown,
        });
    }
    let md = format!(
        "# Extension ablation: region-index lookup strategy (single DPU)\n\n\
         The paper's binary-searched index table vs a naive linear scan,\n\
         same kernel otherwise. Modeled times from the simulator's cost\n\
         model.\n\n{}",
        table.render()
    );
    println!("{md}");
    harness.save("ext_ablation_index", &md, &rows);
}
