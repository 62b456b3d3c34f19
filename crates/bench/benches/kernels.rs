//! Criterion benchmarks of the DPU kernels, including the ablations
//! DESIGN.md §8 calls out: WRAM buffer sizing for the sort, and the
//! merge-based intersection against a binary-search-per-neighbor
//! alternative; plus the heavy-hitter remap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_graph::triangle::sorted_intersection_count;
use pim_sim::system::encode_slice;
use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};
use pim_tc::kernel::layout::{Header, MramLayout};
use pim_tc::kernel::{count, edge_key, index, remap, sort};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Builds a single-DPU system preloaded with `keys` in the sample region
/// and the packed remap `table`.
fn loaded_system(keys: &[u64], table: &[u64], wram: usize) -> (PimSystem, MramLayout) {
    let config = PimConfig {
        total_dpus: 1,
        mram_capacity: ((keys.len() as u64 * 24 + 8192).next_power_of_two()).max(1 << 16),
        wram_capacity: wram,
        iram_capacity: 24 << 10,
        nr_tasklets: 16,
        host_threads: 1,
        fault: None,
    };
    let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
    let layout = MramLayout::compute(
        config.mram_capacity,
        8,
        table.len() as u64,
        Some((keys.len() as u64).max(3)),
    )
    .unwrap();
    let hdr = Header {
        cap: layout.capacity,
        len: keys.len() as u64,
        remap_len: table.len() as u64,
        ..Header::default()
    };
    let (hdr, sample, table) = (hdr.encode(), encode_slice(keys), encode_slice(table));
    let writes = [
        (0, &hdr[..]),
        (layout.sample_off, &sample),
        (layout.remap_off, &table),
    ];
    let writes: Vec<HostWrite> = (writes.into_iter())
        .filter(|(_, data)| !data.is_empty())
        .map(|(offset, data)| HostWrite {
            dpu: 0,
            offset,
            data,
        })
        .collect();
    sys.push(&writes).unwrap();
    (sys, layout)
}

/// Ablation: DPU sort under different WRAM sizes (bigger scratchpad →
/// longer initial runs → fewer merge passes).
fn bench_sort_wram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpu_sort_wram_ablation");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let keys: Vec<u64> = (0..20_000).map(|_| rng.gen()).collect();
    for wram in [16usize << 10, 64 << 10, 256 << 10] {
        g.throughput(Throughput::Elements(keys.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("sort_20k", wram / 1024),
            &wram,
            |b, &wram| {
                b.iter(|| {
                    let (mut sys, layout) = loaded_system(&keys, &[], wram);
                    sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
                    black_box(sys.phase_times().total())
                })
            },
        );
    }
    g.finish();
}

/// The full DPU counting pipeline on a realistic per-core sample.
fn bench_count_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpu_count_pipeline");
    let graph = pim_graph::gen::erdos_renyi(1500, 0.02, 7);
    let mut keys: Vec<u64> = graph
        .edges()
        .iter()
        .map(|e| {
            let n = e.normalized();
            pim_tc::kernel::edge_key(n.u, n.v)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("sort_index_count", |b| {
        b.iter(|| {
            let (mut sys, layout) = loaded_system(&keys, &[], 64 << 10);
            sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| index::index_kernel(ctx, &layout))
                .unwrap();
            sys.execute(|ctx| count::count_kernel(ctx, &layout))
                .unwrap()[0]
        })
    });
    g.finish();
}

/// The heavy-hitter remap of a 20k-edge sample whose endpoints skew
/// toward low ids, by a 256-entry table of the lowest ids.
fn bench_remap(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpu_remap");
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut skewed = || (rng.gen_range(0..5000u32) * rng.gen_range(0..5000u32)) / 5000;
    let keys: Vec<u64> = (0..20_000).map(|_| edge_key(skewed(), skewed())).collect();
    let pairs: Vec<(u32, u32)> = (0..256).map(|i| (i, u32::MAX - i)).collect();
    let table = remap::encode_table(&pairs);
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("remap_20k_by_256", |b| {
        b.iter(|| {
            let (mut sys, layout) = loaded_system(&keys, &table, 64 << 10);
            sys.execute(|ctx| remap::remap_kernel(ctx, &layout))
                .unwrap();
            black_box(sys.phase_times().total())
        })
    });
    g.finish();
}

/// Ablation: merge-walk intersection (the DPU kernel's §3.4 strategy)
/// vs binary-search-per-neighbor (the TriCore/GPU strategy) on identical
/// adjacency data.
fn bench_intersection_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("intersection_ablation");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut a: Vec<u32> = (0..2048).map(|_| rng.gen_range(0..100_000)).collect();
    let mut bvec: Vec<u32> = (0..2048).map(|_| rng.gen_range(0..100_000)).collect();
    a.sort_unstable();
    a.dedup();
    bvec.sort_unstable();
    bvec.dedup();
    g.throughput(Throughput::Elements((a.len() + bvec.len()) as u64));
    g.bench_function("merge_walk", |b| {
        b.iter(|| sorted_intersection_count(black_box(&a), black_box(&bvec)))
    });
    g.bench_function("binary_search_per_element", |b| {
        b.iter(|| {
            let mut count = 0u64;
            for &x in black_box(&a) {
                if bvec.binary_search(&x).is_ok() {
                    count += 1;
                }
            }
            count
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_sort_wram, bench_count_pipeline, bench_remap, bench_intersection_strategies
}
criterion_main!(benches);
