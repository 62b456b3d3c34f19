//! Host-side orchestration: coloring, sampling, and batch creation.
//!
//! §3.1: "Each host CPU thread manages an array of edges per PIM core,
//! which are populated according to the specific triplet assigned to each
//! PIM core. Once all edges have been processed, each thread transfers its
//! different batches of edges to all PIM cores in parallel." The routing
//! below reproduces that pipeline with rayon: the edge stream is split
//! into chunks, each chunk routed independently (with its own uniform
//! sampler and Misra-Gries summary), and per-core batches concatenated in
//! chunk order so results are deterministic for a seed.

use crate::kernel::edge_key;
use crate::triplets::TripletAssignment;
use pim_graph::Edge;
use pim_stream::{ColoringHash, MisraGries, UniformSampler};
use rayon::prelude::*;

/// Fixed routing granule, in input edges. The stream is always cut into
/// granules of this size, and every granule draws its sampling decisions
/// from its own [`splitmix64`]-derived RNG stream keyed by the granule's
/// *global* index. Sampling therefore depends only on where an edge sits
/// in the overall stream — never on thread count or on how a streaming
/// caller batches `route_edges` calls (see [`RouteParams::base_granule`]).
pub const ROUTE_GRANULE_EDGES: usize = 8192;

pub use pim_stream::journal::splitmix64;

/// Sampler seed for one routing granule: the canonical splitmix64 stream
/// seeded at `seed`, evaluated at the granule's global index.
fn granule_seed(seed: u64, granule_idx: u64) -> u64 {
    splitmix64(seed.wrapping_add(granule_idx.wrapping_mul(0x9E3779B97F4A7C15)))
}

/// The outcome of routing one edge stream.
#[derive(Debug, Default)]
pub struct RoutedBatches {
    /// Packed edge keys per PIM core, in arrival order.
    pub per_dpu: Vec<Vec<u64>>,
    /// Edges offered (before uniform sampling; self loops excluded).
    pub offered: u64,
    /// Edges kept by uniform sampling.
    pub kept: u64,
    /// Merged Misra-Gries summary, when heavy-hitter tracking is enabled.
    pub summary: Option<MisraGries>,
}

impl RoutedBatches {
    /// Total routed edge copies (should be `colors × kept`).
    pub fn total_routed(&self) -> u64 {
        self.per_dpu.iter().map(|b| b.len() as u64).sum()
    }

    /// Clears all batches and counters for reuse, retaining every
    /// buffer's capacity. `per_dpu` is (re)sized to `nr_dpus`.
    fn reset(&mut self, nr_dpus: usize, mg_capacity: Option<usize>) {
        if self.per_dpu.len() != nr_dpus {
            self.per_dpu.resize_with(nr_dpus, Vec::new);
        }
        for batch in &mut self.per_dpu {
            batch.clear();
        }
        self.offered = 0;
        self.kept = 0;
        self.summary = mg_capacity.map(MisraGries::new);
    }
}

/// Reusable buffers for [`route_edges_into`]: the per-parallel-chunk
/// staging state that would otherwise be reallocated on every call.
/// Streaming callers ([`crate::TcSession`]) hold one of these across all
/// appended chunks, so steady-state routing performs no heap allocation —
/// every `Vec` is cleared and refilled at retained capacity.
#[derive(Debug, Default)]
pub struct RouteScratch {
    chunks: Vec<ChunkScratch>,
}

/// Routing parameters.
#[derive(Clone, Copy, Debug)]
pub struct RouteParams<'a> {
    /// The triplet → core assignment.
    pub assignment: &'a TripletAssignment,
    /// The vertex coloring.
    pub coloring: &'a ColoringHash,
    /// Uniform-sampling keep probability (1.0 = keep all).
    pub uniform_p: f64,
    /// Seed for the per-chunk samplers.
    pub seed: u64,
    /// Misra-Gries capacity per chunk; `None` disables tracking.
    pub mg_capacity: Option<usize>,
    /// Host threads (chunks) to use.
    pub threads: usize,
    /// Global index of the granule the first edge of this call belongs
    /// to. `0` for a one-shot route; a streaming caller that feeds the
    /// stream through several `route_edges` calls passes the number of
    /// granules already consumed, which makes the concatenated result
    /// bit-identical to one unchunked call.
    pub base_granule: u64,
}

impl RouteParams<'_> {
    /// Granules this call consumes: what a streaming caller adds to
    /// [`RouteParams::base_granule`] for the next call.
    pub fn granules_in(edges: usize) -> u64 {
        edges.div_ceil(ROUTE_GRANULE_EDGES) as u64
    }
}

/// Routes an edge stream to per-core batches.
///
/// Edges are normalized (`u < v`) and self loops dropped on the way; each
/// surviving edge is replicated to the `C` compatible cores (§3.1).
///
/// One-shot convenience over [`route_edges_into`]: allocates fresh
/// scratch and output. Streaming callers should hold a [`RouteScratch`]
/// and a [`RoutedBatches`] and call [`route_edges_into`] directly.
pub fn route_edges(edges: &[Edge], params: RouteParams<'_>) -> RoutedBatches {
    let mut out = RoutedBatches::default();
    let mut scratch = RouteScratch::default();
    route_edges_into(edges, params, &mut out, &mut scratch);
    out
}

/// Routes an edge stream into a reusable [`RoutedBatches`], staging
/// through a reusable [`RouteScratch`]. `out` is reset first (counters
/// zeroed, buffers cleared at retained capacity), so repeated calls with
/// the same pair perform no steady-state allocation.
///
/// The batched pipeline replaces the old branchy per-edge path: each
/// granule is processed in three flat passes — (1) sample and normalize
/// kept edges into a contiguous key block, (2) compute every key's color
/// pair index in a tight branch-free loop over that block, (3) scatter
/// each key to its `C` destination cores straight from the precomputed
/// [`TripletAssignment::routes_at`] table. Results are bit-identical to
/// the per-edge reference path ([`route_edges_reference`]).
pub fn route_edges_into(
    edges: &[Edge],
    params: RouteParams<'_>,
    out: &mut RoutedBatches,
    scratch: &mut RouteScratch,
) {
    let nr_dpus = params.assignment.nr_dpus();
    out.reset(nr_dpus, params.mg_capacity);
    let threads = params.threads.max(1);
    // Per-thread chunks are granule-aligned, so a chunk always covers
    // whole granules: results cannot depend on the thread count.
    let chunk_size = edges
        .len()
        .div_ceil(threads)
        .div_ceil(ROUTE_GRANULE_EDGES)
        .max(1)
        * ROUTE_GRANULE_EDGES;
    let granules_per_chunk = (chunk_size / ROUTE_GRANULE_EDGES) as u64;

    let n_chunks = edges.len().div_ceil(chunk_size);
    if scratch.chunks.len() < n_chunks {
        scratch.chunks.resize_with(n_chunks, ChunkScratch::default);
    }
    edges
        .par_chunks(chunk_size)
        .zip(scratch.chunks[..n_chunks].par_iter_mut())
        .enumerate()
        .for_each(|(chunk_idx, (chunk, cs))| {
            let first_granule = params.base_granule + chunk_idx as u64 * granules_per_chunk;
            route_chunk(chunk, first_granule, nr_dpus, &params, cs);
        });

    // Deterministic merge in chunk order.
    for cs in &mut scratch.chunks[..n_chunks] {
        out.offered += cs.offered;
        out.kept += cs.kept;
        for (dpu, batch) in cs.per_dpu.iter_mut().enumerate() {
            out.per_dpu[dpu].append(batch);
        }
        if let (Some(acc), Some(local)) = (out.summary.as_mut(), cs.summary.as_ref()) {
            acc.merge(local);
        }
    }
}

/// Counts how many edges each PIM core would receive under a given color
/// count and seed, without materializing batches. Used by capacity
/// planning: the expected-max formula `6|E|/C²` (§3.1) holds for uniform
/// color-pair distributions, but structured graphs (lattices, hubs) can
/// skew pairs well past it, so exact-mode runs size the per-core sample
/// from the true maximum.
pub fn dpu_loads(edges: &[pim_graph::Edge], colors: u32, seed: u64) -> Vec<u64> {
    let assignment = TripletAssignment::new(colors);
    let coloring = ColoringHash::new(colors, seed);
    let mut loads = vec![0u64; assignment.nr_dpus()];
    for e in edges {
        if e.is_self_loop() {
            continue;
        }
        let n = e.normalized();
        let (ca, cb) = coloring.edge_colors(n.u, n.v);
        for &dpu in assignment.pair_dpus(ca, cb) {
            loads[dpu as usize] += 1;
        }
    }
    loads
}

/// Normalizes one edge and resolves the PIM cores it routes to, filling
/// `routes`. Returns the normalized edge, or `None` for self loops. Only
/// the per-edge oracle [`route_edges_reference`] calls it. [`route_edges`]
/// routes through the flat pair table, which proptests hold bit-identical
/// to the oracle; [`dpu_loads`] routes through `pair_dpus`, whose per-core
/// totals a unit test holds to [`route_edges`]'s.
#[inline]
fn resolve_edge(
    e: &Edge,
    coloring: &ColoringHash,
    assignment: &TripletAssignment,
    routes: &mut Vec<u32>,
) -> Option<Edge> {
    if e.is_self_loop() {
        return None;
    }
    let n = e.normalized();
    let (ca, cb) = coloring.edge_colors(n.u, n.v);
    assignment.dpus_for_edge(ca, cb, routes);
    Some(n)
}

/// Per-parallel-chunk staging state, reused across [`route_edges_into`]
/// calls. `keys` holds the chunk's kept keys in order; `pairs` holds each
/// key's color-pair index.
#[derive(Debug, Default)]
struct ChunkScratch {
    per_dpu: Vec<Vec<u64>>,
    /// Kept edge keys, chunk-arrival order (all granules of the chunk).
    keys: Vec<u64>,
    /// Color-pair index of each kept key ([`TripletAssignment::pair_index`]).
    pairs: Vec<u32>,
    offered: u64,
    kept: u64,
    summary: Option<MisraGries>,
}

impl ChunkScratch {
    fn reset(&mut self, nr_dpus: usize, mg_capacity: Option<usize>) {
        if self.per_dpu.len() != nr_dpus {
            self.per_dpu.resize_with(nr_dpus, Vec::new);
        }
        for batch in &mut self.per_dpu {
            batch.clear();
        }
        self.keys.clear();
        self.pairs.clear();
        self.offered = 0;
        self.kept = 0;
        self.summary = mg_capacity.map(MisraGries::new);
    }
}

/// Routes one granule-aligned chunk. `first_granule` is the global index
/// of the chunk's first granule; each granule inside gets its own
/// [`granule_seed`]-derived sampler, so decisions are position-keyed.
///
/// The work is organized as flat passes per granule (sample → colors →
/// heavy hitters → scatter) rather than doing everything per edge: the
/// color pass is branch-free over a contiguous key block, and the
/// scatter pass reads each pair's `C` destinations as one table slice
/// instead of re-deriving sorted triplets edge by edge.
fn route_chunk(
    chunk: &[Edge],
    first_granule: u64,
    nr_dpus: usize,
    params: &RouteParams<'_>,
    cs: &mut ChunkScratch,
) {
    cs.reset(nr_dpus, params.mg_capacity);
    let assignment = params.assignment;
    for (g, granule) in chunk.chunks(ROUTE_GRANULE_EDGES).enumerate() {
        let mut sampler = UniformSampler::new(
            params.uniform_p,
            granule_seed(params.seed, first_granule + g as u64),
        );
        let block_start = cs.keys.len();
        // Pass 1: sampling + normalization. The sampler draw order is
        // load-bearing (one draw per offered edge): it pins the sampled
        // stream for a seed, so this pass must stay per-edge.
        for e in granule {
            if e.is_self_loop() {
                continue;
            }
            cs.offered += 1;
            if !sampler.keep() {
                continue;
            }
            cs.kept += 1;
            let n = e.normalized();
            cs.keys.push(edge_key(n.u, n.v));
        }
        let block = &cs.keys[block_start..];
        // Pass 2: color-pair indices, branch-free over the key block.
        cs.pairs.extend(block.iter().map(|&key| {
            let (ca, cb) = params.coloring.edge_colors(
                crate::kernel::key_first(key),
                crate::kernel::key_second(key),
            );
            assignment.pair_index(ca, cb)
        }));
        // Pass 3: heavy-hitter offers (stream order matters to MG).
        if let Some(mg) = cs.summary.as_mut() {
            for &key in block {
                mg.offer_edge(
                    crate::kernel::key_first(key),
                    crate::kernel::key_second(key),
                );
            }
        }
        // Pass 4: scatter each key to its C cores via the flat table.
        let pairs = &cs.pairs[block_start..];
        for (&key, &pair) in block.iter().zip(pairs) {
            for &dpu in assignment.routes_at(pair) {
                cs.per_dpu[dpu as usize].push(key);
            }
        }
    }
}

/// The pre-batching per-edge routing path, retained verbatim as the
/// differential-testing oracle: proptests assert [`route_edges`] stays
/// bit-identical to it (batches, counts, summary). Not used on
/// any hot path.
pub fn route_edges_reference(edges: &[Edge], params: RouteParams<'_>) -> RoutedBatches {
    struct ChunkResult {
        per_dpu: Vec<Vec<u64>>,
        offered: u64,
        kept: u64,
        summary: Option<MisraGries>,
    }
    let nr_dpus = params.assignment.nr_dpus();
    let threads = params.threads.max(1);
    let chunk_size = edges
        .len()
        .div_ceil(threads)
        .div_ceil(ROUTE_GRANULE_EDGES)
        .max(1)
        * ROUTE_GRANULE_EDGES;
    let granules_per_chunk = (chunk_size / ROUTE_GRANULE_EDGES) as u64;
    let chunk_results: Vec<ChunkResult> = edges
        .par_chunks(chunk_size)
        .enumerate()
        .map(|(chunk_idx, chunk)| {
            let first_granule = params.base_granule + chunk_idx as u64 * granules_per_chunk;
            let mut per_dpu: Vec<Vec<u64>> = vec![Vec::new(); nr_dpus];
            let mut summary = params.mg_capacity.map(MisraGries::new);
            let mut routes = Vec::with_capacity(params.assignment.colors() as usize);
            let mut offered = 0u64;
            let mut kept = 0u64;
            for (g, granule) in chunk.chunks(ROUTE_GRANULE_EDGES).enumerate() {
                let mut sampler = UniformSampler::new(
                    params.uniform_p,
                    granule_seed(params.seed, first_granule + g as u64),
                );
                for e in granule {
                    if e.is_self_loop() {
                        continue;
                    }
                    offered += 1;
                    if !sampler.keep() {
                        continue;
                    }
                    kept += 1;
                    let n = resolve_edge(e, params.coloring, params.assignment, &mut routes)
                        .expect("self loops were filtered above");
                    if let Some(mg) = summary.as_mut() {
                        mg.offer_edge(n.u, n.v);
                    }
                    let key = edge_key(n.u, n.v);
                    for &dpu in &routes {
                        per_dpu[dpu as usize].push(key);
                    }
                }
            }
            ChunkResult {
                per_dpu,
                offered,
                kept,
                summary,
            }
        })
        .collect();
    let mut per_dpu: Vec<Vec<u64>> = vec![Vec::new(); nr_dpus];
    let mut offered = 0;
    let mut kept = 0;
    let mut summary = params.mg_capacity.map(MisraGries::new);
    for mut cr in chunk_results {
        offered += cr.offered;
        kept += cr.kept;
        for (dpu, batch) in cr.per_dpu.iter_mut().enumerate() {
            per_dpu[dpu].append(batch);
        }
        if let (Some(acc), Some(local)) = (summary.as_mut(), cr.summary.as_ref()) {
            acc.merge(local);
        }
    }
    RoutedBatches {
        per_dpu,
        offered,
        kept,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_graph::CooGraph;

    fn params<'a>(
        assignment: &'a TripletAssignment,
        coloring: &'a ColoringHash,
    ) -> RouteParams<'a> {
        RouteParams {
            assignment,
            coloring,
            uniform_p: 1.0,
            seed: 7,
            mg_capacity: None,
            threads: 4,
            base_granule: 0,
        }
    }

    #[test]
    fn every_edge_is_replicated_c_times() {
        let colors = 5;
        let assignment = TripletAssignment::new(colors);
        let coloring = ColoringHash::new(colors, 3);
        let g = pim_graph::gen::erdos_renyi(100, 0.2, 1);
        let routed = route_edges(g.edges(), params(&assignment, &coloring));
        assert_eq!(routed.offered, g.num_edges() as u64);
        assert_eq!(routed.kept, routed.offered);
        assert_eq!(routed.total_routed(), colors as u64 * routed.kept);
    }

    #[test]
    fn self_loops_are_dropped() {
        let assignment = TripletAssignment::new(2);
        let coloring = ColoringHash::new(2, 3);
        let g = CooGraph::from_pairs([(1, 1), (2, 2), (1, 2)]);
        let routed = route_edges(g.edges(), params(&assignment, &coloring));
        assert_eq!(routed.offered, 1);
        assert_eq!(routed.total_routed(), 2);
    }

    #[test]
    fn routing_is_deterministic_and_thread_count_invariant() {
        let assignment = TripletAssignment::new(4);
        let coloring = ColoringHash::new(4, 9);
        let g = pim_graph::gen::erdos_renyi(200, 0.1, 2);
        let route = |threads: usize| {
            let p = RouteParams {
                threads,
                ..params(&assignment, &coloring)
            };
            route_edges(g.edges(), p).per_dpu
        };
        assert_eq!(route(1), route(8));
    }

    #[test]
    fn uniform_sampling_thins_batches() {
        let assignment = TripletAssignment::new(3);
        let coloring = ColoringHash::new(3, 5);
        let g = pim_graph::gen::erdos_renyi(300, 0.2, 3);
        let p = RouteParams {
            uniform_p: 0.25,
            ..params(&assignment, &coloring)
        };
        let routed = route_edges(g.edges(), p);
        let rate = routed.kept as f64 / routed.offered as f64;
        assert!((rate - 0.25).abs() < 0.08, "rate {rate}");
        assert_eq!(routed.total_routed(), 3 * routed.kept);
    }

    #[test]
    fn sampled_stream_is_pinned() {
        // Locks in the splitmix64-keyed sampling stream: if the mixer or
        // the granule scheme changes, this count changes and the seeds
        // baked into recorded experiment results silently shift.
        let assignment = TripletAssignment::new(3);
        let coloring = ColoringHash::new(3, 5);
        let g = pim_graph::gen::erdos_renyi(300, 0.2, 3);
        let p = RouteParams {
            uniform_p: 0.25,
            ..params(&assignment, &coloring)
        };
        let routed = route_edges(g.edges(), p);
        assert_eq!(routed.offered, 8938);
        assert_eq!(routed.kept, 2227);
    }

    #[test]
    fn chunked_routing_matches_one_shot() {
        // A streaming caller that cuts the stream at granule boundaries
        // and advances `base_granule` must reproduce the one-shot result
        // exactly, including under sampling.
        let assignment = TripletAssignment::new(4);
        let coloring = ColoringHash::new(4, 9);
        let g = pim_graph::gen::erdos_renyi(400, 0.15, 6);
        let p = RouteParams {
            uniform_p: 0.5,
            ..params(&assignment, &coloring)
        };
        let one_shot = route_edges(g.edges(), p);

        let chunk_edges = 2 * ROUTE_GRANULE_EDGES;
        let mut per_dpu: Vec<Vec<u64>> = vec![Vec::new(); assignment.nr_dpus()];
        let mut kept = 0;
        let mut base = 0;
        for chunk in g.edges().chunks(chunk_edges) {
            let routed = route_edges(
                chunk,
                RouteParams {
                    base_granule: base,
                    ..p
                },
            );
            base += RouteParams::granules_in(chunk.len());
            kept += routed.kept;
            for (dpu, mut batch) in routed.per_dpu.into_iter().enumerate() {
                per_dpu[dpu].append(&mut batch);
            }
        }
        assert_eq!(kept, one_shot.kept);
        assert_eq!(per_dpu, one_shot.per_dpu);
    }

    #[test]
    fn dpu_loads_agrees_with_exact_routing() {
        // `dpu_loads` (capacity planning) and `route_edges` route through
        // separate tables; in exact mode their per-core totals must match.
        let colors = 4;
        let seed = 11;
        let assignment = TripletAssignment::new(colors);
        let coloring = ColoringHash::new(colors, seed);
        let g = pim_graph::gen::erdos_renyi(150, 0.2, 8);
        let routed = route_edges(g.edges(), params(&assignment, &coloring));
        let loads = dpu_loads(g.edges(), colors, seed);
        let batch_lens: Vec<u64> = routed.per_dpu.iter().map(|b| b.len() as u64).collect();
        assert_eq!(loads, batch_lens);
    }

    #[test]
    fn misra_gries_tracks_the_hub() {
        let assignment = TripletAssignment::new(2);
        let coloring = ColoringHash::new(2, 5);
        let g = pim_graph::gen::simple::star(500);
        let p = RouteParams {
            mg_capacity: Some(8),
            ..params(&assignment, &coloring)
        };
        let routed = route_edges(g.edges(), p);
        let mg = routed.summary.unwrap();
        let top = mg.top(1);
        assert_eq!(top[0].0, 0, "hub must be the top heavy hitter");
    }

    #[test]
    fn batches_only_contain_compatible_edges() {
        let colors = 3;
        let assignment = TripletAssignment::new(colors);
        let coloring = ColoringHash::new(colors, 11);
        let g = pim_graph::gen::erdos_renyi(80, 0.3, 4);
        let routed = route_edges(g.edges(), params(&assignment, &coloring));
        for (dpu, batch) in routed.per_dpu.iter().enumerate() {
            let t = assignment.triplet_of(dpu);
            for &key in batch {
                let (u, v) = crate::kernel::edge_unkey(key);
                let (ca, cb) = coloring.edge_colors(u, v);
                // The pair {ca, cb} must embed in the triplet multiset.
                let mut pool = t.c.to_vec();
                for c in [ca, cb] {
                    let pos = pool
                        .iter()
                        .position(|&x| x == c)
                        .unwrap_or_else(|| panic!("dpu {dpu} got incompatible edge"));
                    pool.remove(pos);
                }
            }
        }
    }

    #[test]
    fn empty_stream_routes_nothing() {
        let assignment = TripletAssignment::new(2);
        let coloring = ColoringHash::new(2, 5);
        let routed = route_edges(&[], params(&assignment, &coloring));
        assert_eq!(routed.offered, 0);
        assert_eq!(routed.total_routed(), 0);
    }
}
