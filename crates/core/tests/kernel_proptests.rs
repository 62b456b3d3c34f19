//! Property tests of the DPU kernels under *randomized hardware shapes*:
//! WRAM sizes, tasklet counts, and MRAM budgets all vary, so buffer-size
//! arithmetic, strided work division, and ping-pong parity are exercised
//! far beyond the fixed configs of the unit tests. The `sort` and `remap`
//! kernels are also held to reference copies of the streaming DPU
//! programs they execute on the host (`kernel_oracles`).

mod kernel_oracles;

use pim_sim::system::{decode_slice, encode_slice};
use pim_sim::{CostModel, DpuContext, HostWrite, PimBackend, PimConfig, PimSystem, SimResult};
use pim_tc::kernel::layout::{Header, MramLayout, HDR_STAGE_LEN};
use pim_tc::kernel::remap::{self, RemapLookup};
use pim_tc::kernel::{checksum, count, edge_key, edge_unkey, index, receive, rng, sort};
use proptest::prelude::*;

/// A random small hardware shape. WRAM per tasklet stays ≥ 256 B so the
/// kernels' minimum buffers fit.
fn hw_shape() -> impl Strategy<Value = PimConfig> {
    (1usize..=16, 1u32..=6).prop_map(|(tasklets, wram_kb)| PimConfig {
        total_dpus: 1,
        mram_capacity: 1 << 22,
        wram_capacity: (wram_kb as usize) << 10,
        iram_capacity: 24 << 10,
        nr_tasklets: tasklets.min((wram_kb as usize) << 2), // ≥256 B/tasklet
        host_threads: 1,
        fault: None,
    })
}

fn loaded(keys: &[u64], config: PimConfig) -> (PimSystem, MramLayout) {
    let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
    let layout =
        MramLayout::compute(config.mram_capacity, 8, 0, Some((keys.len() as u64).max(3))).unwrap();
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
    (sys, layout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sort_kernel_sorts_under_any_shape(
        mut keys in prop::collection::vec(any::<u64>(), 0..2000),
        config in hw_shape(),
    ) {
        let (mut sys, layout) = loaded(&keys, config);
        sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
        let got: Vec<u64> = decode_slice(
            sys.dpu(0).unwrap().host_read(layout.sample_off, keys.len() as u64 * 8).unwrap(),
        );
        keys.sort_unstable();
        prop_assert_eq!(got, keys);
    }

    #[test]
    fn index_kernel_matches_host_model(
        pairs in prop::collection::vec((0u32..50, 0u32..50), 0..300),
        config in hw_shape(),
    ) {
        // Canonical sorted sample.
        let mut keys: Vec<u64> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| edge_key(u.min(v), u.max(v)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let (mut sys, layout) = loaded(&keys, config);
        let entries = sys.execute(|ctx| index::index_kernel(ctx, &layout)).unwrap()[0];
        let got: Vec<(u32, u32)> = decode_slice::<u64>(
            sys.dpu(0).unwrap().host_read(layout.index_off, entries * 8).unwrap(),
        )
        .into_iter()
        .map(pim_tc::kernel::edge_unkey)
        .collect();
        // Host model of the region table.
        let mut expect = Vec::new();
        let mut prev = None;
        for (i, &k) in keys.iter().enumerate() {
            let u = (k >> 32) as u32;
            if prev != Some(u) {
                expect.push((u, i as u32));
                prev = Some(u);
            }
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn pipeline_counts_match_reference_under_any_shape(
        pairs in prop::collection::vec((0u32..40, 0u32..40), 0..200),
        config in hw_shape(),
    ) {
        let g = pim_graph::CooGraph::from_pairs(pairs);
        let mut keys: Vec<u64> = g
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| {
                let n = e.normalized();
                edge_key(n.u, n.v)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.reverse(); // deliver unsorted
        let (mut sys, layout) = loaded(&keys, config);
        sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
        sys.execute(|ctx| index::index_kernel(ctx, &layout)).unwrap();
        let counted = sys.execute(|ctx| count::count_kernel(ctx, &layout)).unwrap()[0];
        prop_assert_eq!(counted, pim_graph::triangle::count_exact(&g));
    }

    /// Every intersection strategy (merge, gallop, bitmap, adaptive)
    /// produces the identical count on adversarial samples: tiny node
    /// ranges (dense, skewed adjacency), duplicate-heavy multisets (the
    /// sampled-stream case, where duplicate multiplicity must combine as
    /// `min`), and arbitrary hardware shapes (tiny WRAM forces bitmap
    /// range splits and buffer refills mid-region).
    #[test]
    fn intersect_strategies_agree_on_adversarial_samples(
        pairs in prop::collection::vec((0u32..12, 0u32..12), 0..250),
        config in hw_shape(),
    ) {
        // Deliberately keep duplicates: sort, no dedup.
        let mut keys: Vec<u64> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| edge_key(u.min(v), u.max(v)))
            .collect();
        keys.sort_unstable();
        let run = |strategy| {
            let (mut sys, layout) = loaded(&keys, config);
            sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| index::index_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| {
                count::count_kernel_opts(ctx, &layout, count::RegionLookup::BinarySearch, strategy)
            })
            .unwrap()[0]
        };
        let merge = run(count::IntersectStrategy::Merge);
        prop_assert_eq!(run(count::IntersectStrategy::Gallop), merge, "gallop");
        prop_assert_eq!(run(count::IntersectStrategy::Bitmap), merge, "bitmap");
        prop_assert_eq!(run(count::IntersectStrategy::Adaptive), merge, "adaptive");
    }

    #[test]
    fn lookup_strategies_agree(
        pairs in prop::collection::vec((0u32..30, 0u32..30), 0..150),
        config in hw_shape(),
    ) {
        let g = pim_graph::CooGraph::from_pairs(pairs);
        let mut keys: Vec<u64> = g
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| {
                let n = e.normalized();
                edge_key(n.u, n.v)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let run = |lookup| {
            let (mut sys, layout) = loaded(&keys, config);
            sys.execute(|ctx| sort::sort_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| index::index_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| count::count_kernel_with(ctx, &layout, lookup)).unwrap()[0]
        };
        prop_assert_eq!(
            run(count::RegionLookup::BinarySearch),
            run(count::RegionLookup::LinearScan)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The receive kernel, batch after batch, leaves the sample, stream
    /// position and RNG state a host loop over the reservoir rule
    /// computes from the same keys, whether the sample never fills,
    /// fills mid-batch or overflows from the start.
    #[test]
    fn receive_kernel_matches_a_host_replay_of_the_reservoir_rule(
        config in hw_shape(),
        cap in 3u64..40,
        batches in prop::collection::vec(1u64..48, 1..8),
        seed in any::<u64>(),
        sealed in any::<bool>(),
    ) {
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute(config.mram_capacity, 48, 0, Some(cap)).unwrap();
        let hdr = Header { cap, rng: rng::seed_for_dpu(seed, 0), ..Header::default() };
        sys.push(&[HostWrite { dpu: 0, offset: 0, data: &hdr.encode() }]).unwrap();
        let (mut sample, mut seen, mut state) = (Vec::new(), 0u64, hdr.rng);
        for n in batches {
            let keys: Vec<u64> = (seen..seen + n).map(|i| edge_key(i as u32, 7)).collect();
            let mut staged = keys.clone();
            if sealed {
                staged.push(checksum::digest_at(0, &keys));
            }
            sys.push(&[
                HostWrite { dpu: 0, offset: layout.staging_off, data: &encode_slice(&staged) },
                HostWrite { dpu: 0, offset: HDR_STAGE_LEN, data: &encode_slice(&[n]) },
            ])
            .unwrap();
            let processed = sys
                .execute(|ctx| receive::receive_kernel(ctx, &layout, sealed))
                .unwrap()[0];
            prop_assert_eq!(processed, n);
            for key in keys {
                seen += 1;
                rng::reservoir_slot(&mut state, seen, sample.len() as u64, cap)
                    .apply(&mut sample, key);
            }
        }
        let bank = sys.dpu(0).unwrap();
        let hdr = Header::decode(bank.host_read(0, 64).unwrap());
        let resident: Vec<u64> =
            decode_slice(bank.host_read(layout.sample_off, hdr.len * 8).unwrap());
        prop_assert_eq!(resident, sample);
        prop_assert_eq!(hdr.seen, seen);
        prop_assert_eq!(hdr.rng, state);
    }
}

/// A random tasklet count and WRAM share, down to shares below the sort's
/// and remap's minimum buffers, where both sides must fail alike.
fn wram_split() -> impl Strategy<Value = PimConfig> {
    let share_words = prop_oneof![1 => 4usize..16, 3 => 16usize..600];
    (1usize..=24, share_words).prop_map(|(tasklets, share_words)| split(tasklets, share_words))
}

type Kernel = fn(&mut DpuContext<'_>, &MramLayout) -> SimResult<()>;

/// What one launch of `kernel` over `keys` and a packed remap `table`
/// leaves behind: the launch's result, then (when it succeeds) the
/// sample's bytes, each tasklet's instructions, and the launch's DMA
/// cycles and bytes.
type Outcome = (Result<(), String>, Vec<u8>, Vec<u64>, (u64, u64));

fn launch(keys: &[u64], table: &[u64], config: PimConfig, kernel: Kernel) -> Outcome {
    let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
    let len = keys.len() as u64;
    let layout = MramLayout::compute(
        config.mram_capacity,
        8,
        table.len() as u64,
        Some(len.max(3)),
    )
    .unwrap();
    let hdr = Header {
        cap: layout.capacity,
        len,
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
    if let Err(e) = sys.execute(|ctx| kernel(ctx, &layout)) {
        return (Err(format!("{e:?}")), Vec::new(), Vec::new(), (0, 0));
    }
    let dpu = sys.dpu(0).unwrap();
    (
        Ok(()),
        dpu.host_read(layout.sample_off, len * 8).unwrap().to_vec(),
        dpu.kernel_tasklet_instructions().to_vec(),
        dpu.kernel_dma(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_kernel_matches_the_streaming_oracle(
        mut keys in prop::collection::vec(any::<u64>(), 0..3000),
        presorted in 0usize..3000,
        config in wram_split(),
    ) {
        // After the first batch most of a sample is a sorted prefix.
        let k = presorted.min(keys.len());
        keys[..k].sort_unstable();
        let got = launch(&keys, &[], config, sort::sort_kernel);
        let want = launch(&keys, &[], config, kernel_oracles::sort_kernel);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn remap_kernel_matches_the_streaming_oracle(
        olds in prop::collection::vec(prop_oneof![0u32..64, any::<u32>()], 0..48),
        ends in prop::collection::vec((0u32..4, any::<u32>(), 0u32..4, any::<u32>()), 0..800),
        config in wram_split(),
    ) {
        let mut olds = olds;
        olds.sort_unstable();
        olds.dedup();
        let pairs: Vec<(u32, u32)> = (olds.iter().enumerate())
            .map(|(i, &old)| (old, u32::MAX - i as u32))
            .collect();
        // Small ids (many above the largest small old id), table ids,
        // already remapped ids, and anything.
        let id = |kind: u32, x: u32| match kind {
            0 => x % 80,
            1 if !olds.is_empty() => olds[x as usize % olds.len()],
            2 => u32::MAX - x % 8,
            _ => x,
        };
        let keys: Vec<u64> = (ends.iter())
            .map(|&(a, x, b, y)| edge_key(id(a, x), id(b, y)))
            .collect();
        // The whole table, its one-entry prefix, and the empty table.
        for pairs in [&pairs[..], &pairs[..pairs.len().min(1)], &[]] {
            let table = remap::encode_table(pairs);
            let lookup = RemapLookup::new(&table);
            let mut input = keys.clone();
            // The second pass meets only remapped ids.
            for _ in 0..2 {
                let got = launch(&input, &table, config, remap::remap_kernel);
                let want = launch(&input, &table, config, kernel_oracles::remap_kernel);
                prop_assert_eq!(&got, &want);
                for &key in &input {
                    let (u, v) = edge_unkey(key);
                    for id in [u, v, u.wrapping_add(1), v.wrapping_sub(1)] {
                        prop_assert_eq!(lookup.map_id(id), kernel_oracles::map(&table, id));
                    }
                }
                if got.0.is_err() || table.is_empty() {
                    break;
                }
                input = decode_slice(&got.1);
            }
        }
    }
}

/// A one-DPU shape of `tasklets` tasklets with `share_words` words of
/// WRAM each.
fn split(tasklets: usize, share_words: usize) -> PimConfig {
    PimConfig {
        total_dpus: 1,
        mram_capacity: 1 << 22,
        wram_capacity: share_words * 8 * tasklets,
        iram_capacity: 24 << 10,
        nr_tasklets: tasklets,
        host_threads: 1,
        fault: None,
    }
}

/// Every small shape exhaustively, where the random draws above rarely
/// land: shares around the sort's run buffer and merge windows and the
/// remap's table and chunk buffers, so each WRAM claim fails exactly
/// where the DPU program's does.
#[test]
fn small_shapes_match_the_streaming_oracles() {
    let keys: Vec<u64> = (0..48u64)
        .map(|i| edge_key((i * 37 % 11) as u32, (i * 5 % 13) as u32))
        .collect();
    let pairs: Vec<(u32, u32)> = (0..8).map(|i| (i * 2 + 1, u32::MAX - i)).collect();
    for tasklets in 1..=3 {
        for share_words in 4..=24 {
            let config = split(tasklets, share_words);
            for len in 0..=keys.len() {
                let keys = &keys[..len];
                assert_eq!(
                    launch(keys, &[], config, sort::sort_kernel),
                    launch(keys, &[], config, kernel_oracles::sort_kernel),
                    "sort of {len} keys, {tasklets} tasklets x {share_words} words"
                );
                for entries in [1, 3, 8] {
                    let table = remap::encode_table(&pairs[..entries]);
                    assert_eq!(
                        launch(keys, &table, config, remap::remap_kernel),
                        launch(keys, &table, config, kernel_oracles::remap_kernel),
                        "remap of {len} keys by {entries} entries, \
                         {tasklets} tasklets x {share_words} words"
                    );
                }
            }
        }
    }
}
