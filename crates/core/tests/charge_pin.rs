//! Pins the work the DPU kernels charge: per-launch, per-DPU
//! instructions, DMA bytes and cycles as literal constants, for every
//! intersection strategy, the linear-scan region lookup and local
//! counting on a fixed small R-MAT graph. The simulator may read MRAM
//! however it likes; what it charges is the modeled clock, and the
//! constants below must not move with a host-side speedup.
//!
//! Five captures:
//!
//! * **Pipeline** — the sort → index → count kernels driven directly on
//!   three banks holding different slices of the graph, under two WRAM
//!   splits. Each bank runs in a one-DPU system, so the launch's
//!   `max_cycles` is that bank's cycle count. Each bank's final
//!   high-water mark (`mram_used`) is pinned too.
//! * **Remap pipeline** — the same three banks with a 1-, 24- and
//!   200-entry heavy-hitter table: remap twice (the second pass finds
//!   only remapped ids), then sort → index → count, and the final
//!   `mram_used`.
//! * **Session** — a `TcSession` appending the graph and counting it,
//!   with every launch's `launch` and `hist` metric events pinned.
//! * **Overflow** — a `TcSession` whose `sample_capacity` is far below
//!   each partition's routed load, so most keys take the receive
//!   kernel's per-key reservoir loop; plain and sealed, under both WRAM
//!   splits, with a fold of the resident samples pinning what was kept.
//! * **Misra-Gries** — a `TcSession` tracking heavy hitters, appending
//!   the graph in three batches and counting after each, under both WRAM
//!   splits: every `remap`, `sort`, `index` and `count` launch.

use pim_graph::CooGraph;
use pim_metrics::{Event, MemorySink, MetricsHub};
use pim_sim::system::encode_slice;
use pim_sim::{CostModel, DpuContext, HostWrite, PimBackend, PimConfig, PimSystem, SimResult};
use pim_tc::kernel::count::{count_kernel_opts, RegionLookup};
use pim_tc::kernel::layout::{Header, MramLayout};
use pim_tc::kernel::{edge_key, index, local, remap, sort};
use pim_tc::{IntersectStrategy, TcConfig, TcSession};
use std::sync::Arc;

/// `[cycles, instructions, dma_bytes]` of one bank in one launch.
type Charge = [u64; 3];

/// One launch of the pipeline capture: `(label, per-bank charges)`.
type PipelineLaunch = (&'static str, [Charge; BANKS]);

/// One pipeline capture: its launches and each bank's final `mram_used`.
type Pipeline = (Vec<(String, [Charge; BANKS])>, [u64; BANKS]);

/// One bank of a pipeline capture: its launches and final `mram_used`.
type BankLaunches = (Vec<(String, Charge)>, u64);

/// One launch of the session capture: `(label, [dpus, instructions,
/// dma_bytes, max_cycles, p50_cycles, p99_cycles])`.
type SessionLaunch<S> = (S, [u64; 6]);

const BANKS: usize = 3;

const STRATEGIES: [IntersectStrategy; 4] = [
    IntersectStrategy::Adaptive,
    IntersectStrategy::Merge,
    IntersectStrategy::Gallop,
    IntersectStrategy::Bitmap,
];

fn graph() -> CooGraph {
    pim_graph::gen::rmat(10, 8, 0.57, 0.19, 0.19, 11)
}

/// Bank `d` holds the normalized edges whose hash is divisible by
/// `d + 1`: the whole graph, about half, about a third. Duplicates stay,
/// so the bitmap's bail-out to the merge runs too.
fn bank_keys(g: &CooGraph, d: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = g
        .edges()
        .iter()
        .filter(|e| !e.is_self_loop())
        .map(|e| {
            let n = e.normalized();
            edge_key(n.u, n.v)
        })
        .filter(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % (d as u64 + 1) == 0)
        .collect();
    keys.reverse();
    keys
}

/// Runs `kernel` as launch `label` and returns the bank's charge.
fn launch<K>(sys: &mut PimSystem, label: &str, kernel: K) -> Charge
where
    K: Fn(&mut DpuContext<'_>) -> SimResult<u64> + Sync,
{
    let before = sys.dpu(0).unwrap().clone();
    sys.execute_labeled(label, kernel).unwrap();
    let after = sys.dpu(0).unwrap();
    let agg = sys.ledger().kernels.into_iter().find(|k| k.label == label);
    [
        agg.unwrap().max_cycles,
        after.lifetime_instructions() - before.lifetime_instructions(),
        after.lifetime_dma_bytes() - before.lifetime_dma_bytes(),
    ]
}

/// Every launch of the pipeline on bank `d` under `config`, and the
/// bank's final `mram_used`.
fn bank_launches(config: PimConfig, g: &CooGraph, d: usize) -> BankLaunches {
    let keys = bank_keys(g, d);
    let nodes = g.num_nodes() as u64;
    let layout =
        MramLayout::compute_with_locals(config.mram_capacity, 8, 0, nodes, Some(keys.len() as u64))
            .unwrap();
    let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
    let hdr = Header {
        cap: layout.capacity,
        len: keys.len() as u64,
        ..Header::default()
    };
    let (hdr, sample) = (hdr.encode(), encode_slice(&keys));
    sys.push(&[
        HostWrite {
            dpu: 0,
            offset: 0,
            data: &hdr,
        },
        HostWrite {
            dpu: 0,
            offset: layout.sample_off,
            data: &sample,
        },
    ])
    .unwrap();
    let mut out = Vec::new();
    let mut run =
        |label: String, kernel: &(dyn Fn(&mut DpuContext<'_>) -> SimResult<u64> + Sync)| {
            let charge = launch(&mut sys, &label, kernel);
            out.push((label, charge));
        };
    run("local_clear".into(), &|ctx| {
        local::local_clear_kernel(ctx, &layout).map(|()| 0)
    });
    run("sort".into(), &|ctx| {
        sort::sort_kernel(ctx, &layout).map(|()| 0)
    });
    run("index".into(), &|ctx| index::index_kernel(ctx, &layout));
    for strategy in STRATEGIES {
        run(format!("count/{strategy}"), &|ctx| {
            count_kernel_opts(ctx, &layout, RegionLookup::BinarySearch, strategy)
        });
    }
    let adaptive = IntersectStrategy::Adaptive;
    run("count/linear".into(), &|ctx| {
        count_kernel_opts(ctx, &layout, RegionLookup::LinearScan, adaptive)
    });
    run("count/local".into(), &|ctx| {
        local::local_count_kernel(ctx, &layout)
    });
    (out, sys.dpu(0).unwrap().mram_used())
}

/// Remap pipeline on bank `d`: the graph's `[1, 24, 200][d]` highest-degree
/// nodes get ids descending from `u32::MAX`; remap runs twice, then
/// sort → index → count. Returns every launch and the final `mram_used`.
fn remap_bank_launches(config: PimConfig, g: &CooGraph, d: usize) -> BankLaunches {
    let keys = bank_keys(g, d);
    let degrees = g.degrees();
    let mut nodes: Vec<u32> = (0..degrees.len() as u32).collect();
    nodes.sort_by_key(|&n| (std::cmp::Reverse(degrees[n as usize]), n));
    let pairs: Vec<(u32, u32)> = (nodes.iter().take([1, 24, 200][d]).enumerate())
        .map(|(i, &n)| (n, u32::MAX - i as u32))
        .collect();
    let table = remap::encode_table(&pairs);
    let layout = MramLayout::compute(
        config.mram_capacity,
        8,
        table.len() as u64,
        Some(keys.len() as u64),
    )
    .unwrap();
    let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
    let hdr = Header {
        cap: layout.capacity,
        len: keys.len() as u64,
        remap_len: table.len() as u64,
        ..Header::default()
    };
    let (hdr, sample, table) = (hdr.encode(), encode_slice(&keys), encode_slice(&table));
    let writes = [
        (0, &hdr[..]),
        (layout.sample_off, &sample),
        (layout.remap_off, &table),
    ];
    let writes = writes.map(|(offset, data)| HostWrite {
        dpu: 0,
        offset,
        data,
    });
    sys.push(&writes).unwrap();
    let mut out = Vec::new();
    let mut run = |label: &str, kernel: &(dyn Fn(&mut DpuContext<'_>) -> SimResult<u64> + Sync)| {
        let charge = launch(&mut sys, label, kernel);
        out.push((label.to_string(), charge));
    };
    for label in ["remap", "remap/again"] {
        run(label, &|ctx| remap::remap_kernel(ctx, &layout).map(|()| 0));
    }
    run("sort", &|ctx| sort::sort_kernel(ctx, &layout).map(|()| 0));
    run("index", &|ctx| index::index_kernel(ctx, &layout));
    run("count", &|ctx| {
        count_kernel_opts(
            ctx,
            &layout,
            RegionLookup::BinarySearch,
            IntersectStrategy::Adaptive,
        )
    });
    (out, sys.dpu(0).unwrap().mram_used())
}

/// A pipeline capture under `config`: each launch with its charge on
/// every bank, and each bank's final `mram_used`.
fn pipeline_with(
    config: PimConfig,
    bank: fn(PimConfig, &CooGraph, usize) -> BankLaunches,
) -> Pipeline {
    let g = graph();
    let banks: [BankLaunches; BANKS] = std::array::from_fn(|d| bank(config, &g, d));
    let launches = (0..banks[0].0.len())
        .map(|i| (banks[0].0[i].0.clone(), banks.each_ref().map(|b| b.0[i].1)))
        .collect();
    (launches, banks.each_ref().map(|b| b.1))
}

fn pipeline(config: PimConfig) -> Pipeline {
    pipeline_with(config, bank_launches)
}

fn remap_pipeline(config: PimConfig) -> Pipeline {
    pipeline_with(config, remap_bank_launches)
}

/// Each pinned pipeline capture, as the test compares it.
fn pinned_pipelines(pins: &[(&[PipelineLaunch], [u64; BANKS])]) -> Vec<Pipeline> {
    pins.iter()
        .map(|(launches, used)| {
            let launches = launches.iter().map(|(l, c)| (l.to_string(), *c));
            (launches.collect(), *used)
        })
        .collect()
}

/// The session capture: one R-MAT append and count per mode (each
/// strategy, then local counting), every launch's metric events.
fn session(pim: PimConfig) -> Vec<(String, Vec<SessionLaunch<String>>)> {
    let g = graph();
    let modes = STRATEGIES.iter().map(|s| (s.to_string(), *s, false));
    let modes = modes.chain([("local".to_string(), IntersectStrategy::Adaptive, true)]);
    let mut out = Vec::new();
    for (name, strategy, local_counting) in modes {
        let mut builder = TcConfig::builder()
            .colors(3)
            .seed(5)
            .pim(pim)
            .stage_edges(512)
            .intersect(strategy);
        if local_counting {
            builder = builder.local_counting(g.num_nodes());
        }
        let config = builder.build().unwrap();
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let mut session = TcSession::<PimSystem>::start_metered(&config, Some(hub)).unwrap();
        session.append(g.edges()).unwrap();
        session.count().unwrap();
        out.push((name, pinned_launches(&sink.events())));
    }
    out
}

/// Every launch's `launch` and `hist` metric events, paired by label.
fn pinned_launches(events: &[Event]) -> Vec<SessionLaunch<String>> {
    let launches = events.iter().filter(|e| e.kind == "launch");
    let hists = events.iter().filter(|e| e.kind == "hist");
    launches
        .zip(hists)
        .map(|(l, h)| {
            assert_eq!(l.str_field("label"), h.str_field("label"));
            let field = |name| [l, h].iter().find_map(|e| e.get_u64(name)).unwrap();
            let fields = [
                "dpus",
                "instructions",
                "dma_bytes",
                "max_cycles",
                "p50_cycles",
                "p99_cycles",
            ];
            (l.str_field("label").to_string(), fields.map(field))
        })
        .collect()
}

/// The Misra-Gries capture: the graph appended in three batches into a
/// session tracking 16 heavy hitters, counted after each batch; every
/// launch but `receive`.
fn misra_gries(pim: PimConfig) -> Vec<SessionLaunch<String>> {
    let config = TcConfig::builder()
        .colors(3)
        .seed(5)
        .pim(pim)
        .stage_edges(512)
        .misra_gries(64, 16)
        .build()
        .unwrap();
    let hub = Arc::new(MetricsHub::new());
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    let mut session = TcSession::<PimSystem>::start_metered(&config, Some(hub)).unwrap();
    for batch in graph().split_batches(3) {
        session.append(&batch).unwrap();
        session.count().unwrap();
    }
    pinned_launches(&sink.events())
        .into_iter()
        .filter(|(label, _)| label != "receive")
        .collect()
}

/// The overflow capture: the graph appended into 200-key reservoirs,
/// every `receive` launch of the append, and one fold of every
/// partition's stream position and resident sample (slot order).
fn overflow(pim: PimConfig, sealed: bool) -> (Vec<SessionLaunch<String>>, u64) {
    let config = TcConfig::builder()
        .colors(3)
        .seed(5)
        .pim(pim)
        .stage_edges(512)
        .sample_capacity(200)
        .hardened(sealed)
        .build()
        .unwrap();
    let hub = Arc::new(MetricsHub::new());
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    let mut session = TcSession::<PimSystem>::start_metered(&config, Some(hub)).unwrap();
    session.append(graph().edges()).unwrap();
    let receives = pinned_launches(&sink.events())
        .into_iter()
        .filter(|(label, _)| label == "receive")
        .collect();
    let fold = session
        .resident_samples()
        .unwrap()
        .iter()
        .flat_map(|(sample, seen)| std::iter::once(seen).chain(sample))
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
        });
    (receives, fold)
}

fn wram_splits() -> [PimConfig; 2] {
    let base = PimConfig {
        total_dpus: 64,
        mram_capacity: 1 << 22,
        ..PimConfig::default()
    };
    // Sixteen tasklets refill buffers of 128–170 words, inside one
    // 2048-byte burst; one tasklet's 2048–2730-word buffers split every
    // full refill into several bursts.
    [
        base,
        PimConfig {
            nr_tasklets: 1,
            ..base
        },
    ]
}

#[test]
fn pipeline_charges_are_pinned() {
    let got: Vec<Pipeline> = wram_splits().map(pipeline).into();
    let pins: Vec<_> = PIPELINE.iter().copied().zip(PIPELINE_MRAM_USED).collect();
    let want = pinned_pipelines(&pins);
    assert_eq!(got, want, "pipeline charges moved:\n{got:?}");
}

#[test]
fn remap_pipeline_charges_are_pinned() {
    let got: Vec<Pipeline> = wram_splits().map(remap_pipeline).into();
    assert_eq!(
        got,
        pinned_pipelines(REMAP_PIPELINE),
        "remap charges moved:\n{got:?}"
    );
}

#[test]
fn misra_gries_session_charges_are_pinned() {
    let got: Vec<Vec<SessionLaunch<String>>> = wram_splits().map(misra_gries).into();
    let want: Vec<Vec<SessionLaunch<String>>> = MISRA_GRIES
        .iter()
        .map(|launches| launches.iter().map(|(l, f)| (l.to_string(), *f)).collect())
        .collect();
    assert_eq!(got, want, "Misra-Gries session charges moved:\n{got:?}");
}

#[test]
fn session_charges_are_pinned() {
    let got = session(wram_splits()[0]);
    let want: Vec<(String, Vec<SessionLaunch<String>>)> = SESSION
        .iter()
        .map(|(mode, launches)| {
            let launches = launches.iter().map(|(l, f)| (l.to_string(), *f));
            (mode.to_string(), launches.collect())
        })
        .collect();
    assert_eq!(got, want, "session charges moved:\n{got:?}");
}

#[test]
fn overflow_charges_are_pinned() {
    let got: Vec<(Vec<SessionLaunch<String>>, u64)> = wram_splits()
        .into_iter()
        .flat_map(|pim| [false, true].map(|sealed| overflow(pim, sealed)))
        .collect();
    let want: Vec<(Vec<SessionLaunch<String>>, u64)> = OVERFLOW
        .iter()
        .map(|(launches, fold)| {
            let launches = launches.iter().map(|(l, f)| (l.to_string(), *f));
            (launches.collect(), *fold)
        })
        .collect();
    assert_eq!(got, want, "overflow charges moved:\n{got:?}");
}

const PIPELINE: &[&[PipelineLaunch]] = &[
    &[
        (
            "local_clear",
            [
                [10284, 1024, 8192],
                [10284, 1024, 8192],
                [10284, 1024, 8192],
            ],
        ),
        (
            "sort",
            [
                [1593930, 487328, 649824],
                [870190, 225240, 321824],
                [712977, 146140, 209904],
            ],
        ),
        (
            "index",
            [
                [307533, 24382, 68944],
                [153197, 12082, 35368],
                [100524, 7885, 23824],
            ],
        ),
        (
            "count/adaptive",
            [
                [25182194, 5631191, 14707008],
                [10091413, 1569947, 4714224],
                [6126527, 756308, 2565976],
            ],
        ),
        (
            "count/merge",
            [
                [27435977, 5651221, 16384752],
                [11218048, 1549269, 5712272],
                [6634227, 737305, 3265472],
            ],
        ),
        (
            "count/gallop",
            [
                [99946694, 9130262, 9565696],
                [26199212, 2293260, 2392328],
                [13169808, 1096220, 1143640],
            ],
        ),
        (
            "count/bitmap",
            [
                [25789866, 5673622, 14062384],
                [10287807, 1596725, 4064408],
                [6251517, 784805, 2044688],
            ],
        ),
        (
            "count/linear",
            [
                [224458523, 23593551, 32669368],
                [92985199, 9117235, 12261512],
                [54092683, 5046900, 6856568],
            ],
        ),
        (
            "count/local",
            [
                [41624044, 7075085, 15898584],
                [11542533, 1692987, 4920440],
                [6572331, 784203, 2717472],
            ],
        ),
    ],
    &[
        (
            "local_clear",
            [
                [15916, 1024, 8192],
                [15916, 1024, 8192],
                [15916, 1024, 8192],
            ],
        ),
        (
            "sort",
            [
                [4719821, 422352, 130016],
                [2160403, 193064, 64416],
                [1409093, 125912, 42032],
            ],
        ),
        (
            "index",
            [
                [307533, 24382, 68944],
                [153197, 12082, 35368],
                [100524, 7885, 23824],
            ],
        ),
        (
            "count/adaptive",
            [
                [126373853, 5614407, 100122400],
                [43548509, 1568103, 39840760],
                [22135869, 753730, 20203536],
            ],
        ),
        (
            "count/merge",
            [
                [144804370, 5651221, 132479280],
                [48574992, 1549269, 49266944],
                [23148563, 737305, 22447800],
            ],
        ),
        (
            "count/gallop",
            [
                [181920034, 9126353, 9561744],
                [46021794, 2291687, 2390736],
                [22031496, 1095222, 1142632],
            ],
        ),
        (
            "count/bitmap",
            [
                [107569407, 5668645, 63907072],
                [34994915, 1594354, 23142288],
                [18128169, 783623, 11854480],
            ],
        ),
        (
            "count/linear",
            [
                [507883093, 23567783, 118075776],
                [203829099, 9110719, 47383376],
                [113312819, 5044410, 24494216],
            ],
        ),
        (
            "count/local",
            [
                [142719593, 6906991, 104584768],
                [45625042, 1679425, 41546272],
                [22973156, 780243, 21274000],
            ],
        ),
    ],
];

const PIPELINE_MRAM_USED: [[u64; BANKS]; 2] = [[142112, 75736, 53000], [142112, 75736, 53000]];

const REMAP_PIPELINE: &[(&[PipelineLaunch], [u64; BANKS])] = &[
    (
        &[
            (
                "remap",
                [
                    [180871, 105594, 130144],
                    [211365, 171650, 67488],
                    [249792, 176639, 67632],
                ],
            ),
            (
                "remap/again",
                [
                    [180871, 105594, 130144],
                    [201957, 162242, 67488],
                    [233072, 162863, 67632],
                ],
            ),
            (
                "sort",
                [
                    [1593930, 487328, 649824],
                    [870190, 225240, 321824],
                    [712977, 146140, 209904],
                ],
            ),
            (
                "index",
                [
                    [307933, 24382, 69552],
                    [154067, 12082, 36864],
                    [101768, 7885, 26024],
                ],
            ),
            (
                "count",
                [
                    [18166368, 3589105, 10482736],
                    [6641159, 689303, 3582664],
                    [4248604, 364585, 2171384],
                ],
            ),
        ],
        [134536, 69232, 48608],
    ),
    (
        &[
            (
                "remap",
                [
                    [1235565, 105594, 130024],
                    [1925028, 171650, 64608],
                    [1968015, 176639, 43632],
                ],
            ),
            (
                "remap/again",
                [
                    [1235565, 105594, 130024],
                    [1821540, 162242, 64608],
                    [1816479, 162863, 43632],
                ],
            ),
            (
                "sort",
                [
                    [4719821, 422352, 130016],
                    [2160403, 193064, 64416],
                    [1409093, 125912, 42032],
                ],
            ),
            (
                "index",
                [
                    [307933, 24382, 69552],
                    [154067, 12082, 36864],
                    [101768, 7885, 26024],
                ],
            ),
            (
                "count",
                [
                    [101641704, 3577398, 96365392],
                    [32163197, 688006, 36544488],
                    [16186543, 364393, 16879040],
                ],
            ),
        ],
        [134536, 69232, 48608],
    ),
];

const MISRA_GRIES: &[&[SessionLaunch<&str>]] = &[
    &[
        ("remap", [10, 305702, 151008, 122329, 111579, 122329]),
        ("sort", [10, 356580, 361952, 441980, 289642, 441980]),
        ("index", [10, 24514, 83440, 70667, 31543, 70667]),
        ("count", [10, 916191, 5475968, 2649420, 1120769, 2649420]),
        ("remap", [10, 606782, 281184, 171832, 119193, 171832]),
        ("sort", [10, 794444, 882176, 828308, 427619, 828308]),
        ("index", [10, 48922, 154328, 139958, 64446, 139958]),
        ("count", [10, 2491561, 13748496, 6195813, 2500086, 6195813]),
        ("remap", [10, 907034, 410976, 256339, 126919, 256339]),
        ("sort", [10, 1352644, 1864960, 1294464, 701931, 1294464]),
        ("index", [10, 73258, 222944, 208582, 97001, 208582]),
        ("count", [10, 4551310, 23093488, 9864038, 4149093, 9864038]),
    ],
    &[
        ("remap", [10, 305702, 131808, 771090, 340164, 771090]),
        ("sort", [10, 327652, 130528, 897753, 360501, 897753]),
        ("index", [10, 24514, 83440, 70667, 31543, 70667]),
        ("count", [10, 916101, 23265464, 9460824, 2536605, 9460824]),
        ("remap", [10, 606782, 261984, 1531171, 700918, 1531171]),
        ("sort", [10, 720840, 260704, 1959069, 822741, 1959069]),
        ("index", [10, 48922, 154328, 139958, 64446, 139958]),
        (
            "count",
            [10, 2487301, 97341640, 30017957, 8786200, 30017957],
        ),
        ("remap", [10, 907034, 391776, 2288957, 1059331, 2288957]),
        ("sort", [10, 1170276, 390496, 3177095, 1358507, 3177095]),
        ("index", [10, 73258, 222944, 208582, 97001, 208582]),
        (
            "count",
            [10, 4543100, 200553768, 52459648, 18364545, 52459648],
        ),
    ],
];

const SESSION: &[(&str, &[SessionLaunch<&str>])] = &[
    (
        "adaptive",
        &[
            ("receive", [10, 10400, 83200, 10682, 10682, 10682]),
            ("receive", [10, 9566, 76528, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 6836, 54688, 10682, 10418, 10682]),
            ("receive", [10, 3380, 27040, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 782, 6256, 9282, 199, 9282]),
            ("sort", [10, 1352644, 1864960, 1294464, 701931, 1294464]),
            ("index", [10, 73258, 214520, 207648, 96610, 207648]),
            (
                "count",
                [10, 10133445, 30433840, 15489286, 5463812, 15489286],
            ),
        ],
    ),
    (
        "merge",
        &[
            ("receive", [10, 10400, 83200, 10682, 10682, 10682]),
            ("receive", [10, 9566, 76528, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 6836, 54688, 10682, 10418, 10682]),
            ("receive", [10, 3380, 27040, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 782, 6256, 9282, 199, 9282]),
            ("sort", [10, 1352644, 1864960, 1294464, 701931, 1294464]),
            ("index", [10, 73258, 214520, 207648, 96610, 207648]),
            (
                "count",
                [10, 10038929, 36177752, 16870750, 5542796, 16870750],
            ),
        ],
    ),
    (
        "gallop",
        &[
            ("receive", [10, 10400, 83200, 10682, 10682, 10682]),
            ("receive", [10, 9566, 76528, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 6836, 54688, 10682, 10418, 10682]),
            ("receive", [10, 3380, 27040, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 782, 6256, 9282, 199, 9282]),
            ("sort", [10, 1352644, 1864960, 1294464, 701931, 1294464]),
            ("index", [10, 73258, 214520, 207648, 96610, 207648]),
            (
                "count",
                [10, 15339847, 16042080, 46902865, 15073577, 46902865],
            ),
        ],
    ),
    (
        "bitmap",
        &[
            ("receive", [10, 10400, 83200, 10682, 10682, 10682]),
            ("receive", [10, 9566, 76528, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 6836, 54688, 10682, 10418, 10682]),
            ("receive", [10, 3380, 27040, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 782, 6256, 9282, 199, 9282]),
            ("sort", [10, 1352644, 1864960, 1294464, 701931, 1294464]),
            ("index", [10, 73258, 214520, 207648, 96610, 207648]),
            (
                "count",
                [10, 10352459, 26878104, 15989126, 5693111, 15989126],
            ),
        ],
    ),
    (
        "local",
        &[
            ("receive", [10, 10400, 83200, 10682, 10682, 10682]),
            ("receive", [10, 9566, 76528, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 7304, 58432, 10682, 10682, 10682]),
            ("receive", [10, 6836, 54688, 10682, 10418, 10682]),
            ("receive", [10, 3380, 27040, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 1112, 8896, 10682, 199, 10682]),
            ("receive", [10, 782, 6256, 9282, 199, 9282]),
            ("sort", [10, 1352644, 1864960, 1294464, 701931, 1294464]),
            ("index", [10, 73258, 214520, 207648, 96610, 207648]),
            ("local_clear", [10, 10240, 81920, 10284, 10284, 10284]),
            (
                "local_count",
                [10, 11720435, 32251160, 18834341, 7068219, 18834341],
            ),
        ],
    ),
];

const OVERFLOW: &[(&[SessionLaunch<&str>], u64)] = &[
    // 16 tasklets, plain
    (
        &[
            ("receive", [10, 404628, 73464, 474068, 464888, 474068]),
            ("receive", [10, 481870, 49016, 604084, 585724, 604084]),
            ("receive", [10, 337952, 34384, 553594, 533398, 553594]),
            ("receive", [10, 324804, 33000, 524218, 515038, 524218]),
            ("receive", [10, 296496, 30168, 508612, 481436, 508612]),
            ("receive", [10, 142292, 14896, 501268, 199, 501268]),
            ("receive", [10, 43972, 5000, 487498, 199, 487498]),
            ("receive", [10, 44352, 5040, 492088, 199, 492088]),
            ("receive", [10, 43516, 4952, 481990, 199, 481990]),
            ("receive", [10, 43668, 4968, 483826, 199, 483826]),
            ("receive", [10, 29758, 3608, 329706, 199, 329706]),
        ],
        3342752682429510389,
    ),
    // 16 tasklets, sealed
    (
        &[
            ("receive", [10, 536412, 98296, 548077, 537979, 548077]),
            ("receive", [10, 604220, 86688, 679936, 660658, 679936]),
            ("receive", [10, 430444, 62992, 627610, 608332, 627610]),
            ("receive", [10, 417448, 61624, 600070, 589972, 600070]),
            ("receive", [10, 384136, 57080, 582628, 561708, 582628]),
            ("receive", [10, 186824, 28280, 575284, 199, 575284]),
            ("receive", [10, 57272, 9096, 563350, 199, 563350]),
            ("receive", [10, 57348, 9104, 564268, 199, 564268]),
            ("receive", [10, 56968, 9064, 559678, 199, 559678]),
            ("receive", [10, 56892, 9056, 558760, 199, 558760]),
            ("receive", [10, 39880, 6552, 413956, 199, 413956]),
        ],
        3342752682429510389,
    ),
    // 1 tasklet, plain
    (
        &[
            ("receive", [10, 404628, 73464, 474068, 464888, 474068]),
            ("receive", [10, 481870, 49016, 604084, 585724, 604084]),
            ("receive", [10, 337952, 34384, 553594, 533398, 553594]),
            ("receive", [10, 324804, 33000, 524218, 515038, 524218]),
            ("receive", [10, 296496, 30168, 508612, 481436, 508612]),
            ("receive", [10, 142292, 14896, 501268, 199, 501268]),
            ("receive", [10, 43972, 5000, 487498, 199, 487498]),
            ("receive", [10, 44352, 5040, 492088, 199, 492088]),
            ("receive", [10, 43516, 4952, 481990, 199, 481990]),
            ("receive", [10, 43668, 4968, 483826, 199, 483826]),
            ("receive", [10, 29758, 3608, 329706, 199, 329706]),
        ],
        3342752682429510389,
    ),
    // 1 tasklet, sealed
    (
        &[
            ("receive", [10, 536262, 98296, 620842, 610744, 620842]),
            ("receive", [10, 604070, 86688, 752701, 733423, 752701]),
            ("receive", [10, 430339, 62992, 700375, 681097, 700375]),
            ("receive", [10, 417343, 61624, 672835, 662737, 672835]),
            ("receive", [10, 384031, 57080, 655393, 627037, 655393]),
            ("receive", [10, 186749, 28280, 648049, 199, 648049]),
            ("receive", [10, 57257, 9096, 636115, 199, 636115]),
            ("receive", [10, 57333, 9104, 637033, 199, 637033]),
            ("receive", [10, 56953, 9064, 632443, 199, 632443]),
            ("receive", [10, 56877, 9056, 631525, 199, 631525]),
            ("receive", [10, 39865, 6552, 442677, 199, 442677]),
        ],
        3342752682429510389,
    ),
];
