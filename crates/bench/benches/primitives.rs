//! Criterion micro-benchmarks of the streaming primitives that sit on the
//! host's hot path: the coloring hash, Misra-Gries updates, reservoir
//! offers, and the full edge-routing step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_stream::{ColoringHash, MisraGries, Reservoir};
use pim_tc::host::{route_edges, RouteParams};
use pim_tc::triplets::TripletAssignment;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_coloring(c: &mut Criterion) {
    let mut g = c.benchmark_group("coloring_hash");
    let h = ColoringHash::new(23, 7);
    g.throughput(Throughput::Elements(1024));
    g.bench_function("color_1024_nodes", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for u in 0..1024u32 {
                acc ^= h.color(black_box(u));
            }
            acc
        })
    });
    g.finish();
}

fn bench_misra_gries(c: &mut Criterion) {
    let mut g = c.benchmark_group("misra_gries");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let stream: Vec<u32> = (0..8192).map(|_| rng.gen_range(0..2000)).collect();
    for k in [64usize, 1024] {
        g.throughput(Throughput::Elements(stream.len() as u64));
        g.bench_with_input(BenchmarkId::new("offer_8k", k), &k, |b, &k| {
            b.iter(|| {
                let mut mg = MisraGries::new(k);
                for &x in &stream {
                    mg.offer(x);
                }
                mg.items_seen()
            })
        });
    }
    g.finish();
}

fn bench_reservoir(c: &mut Criterion) {
    let mut g = c.benchmark_group("reservoir");
    g.throughput(Throughput::Elements(8192));
    g.bench_function("offer_8k_into_1k", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let mut r = Reservoir::new(1024);
            for i in 0..8192u32 {
                r.offer(i, &mut rng);
            }
            r.seen()
        })
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("host_routing");
    let graph = pim_graph::gen::erdos_renyi(2000, 0.02, 3);
    for colors in [4u32, 11, 23] {
        let assignment = TripletAssignment::new(colors);
        let coloring = ColoringHash::new(colors, 5);
        g.throughput(Throughput::Elements(graph.num_edges() as u64));
        g.bench_with_input(BenchmarkId::new("route", colors), &colors, |b, _| {
            b.iter(|| {
                route_edges(
                    graph.edges(),
                    RouteParams {
                        assignment: &assignment,
                        coloring: &coloring,
                        uniform_p: 1.0,
                        seed: 9,
                        base_granule: 0,
                        mg_capacity: None,
                        threads: 1,
                    },
                )
                .total_routed()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_coloring, bench_misra_gries, bench_reservoir, bench_routing
}
criterion_main!(benches);
