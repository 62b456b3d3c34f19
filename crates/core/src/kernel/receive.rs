//! The receive kernel: drain the staging buffer into the edge sample.
//!
//! §3.1/§3.3: "When a PIM core receives the edges, it copies them to the
//! correct location in the DRAM bank or applies reservoir sampling if
//! space is insufficient." While the sample has room, incoming edges are
//! block-copied by all tasklets in parallel (a DMA-bound memcpy). Once the
//! sample is full, the stream continues through the sequential reservoir
//! path: the `t`-th edge replaces a uniform-random resident edge with
//! probability `M/t`.

use super::checksum::{self, CHECKSUM_MISMATCH};
use super::layout::{Header, MramLayout};
use super::rng;
use pim_sim::{DpuContext, SimResult};

/// Instruction cost of the per-edge reservoir decision (counter update,
/// compare, branch), excluding RNG draws.
const RESERVOIR_INSTR_PER_EDGE: u64 = 6;
/// Instruction cost per edge of the bulk-copy path (index arithmetic of
/// the copy loop; data movement itself is DMA).
const COPY_INSTR_PER_EDGE: u64 = 2;

/// Drains the staging region. Returns the number of staged edges
/// processed.
///
/// A `sealed` slice (hardened sessions) ends in the
/// [digest][checksum::digest_at] of its keys at staging slot `stage_len`.
/// Its copy pass also reads the overflow tail, each tasklet digesting the
/// blocks it reads, and on a mismatch the kernel returns
/// [`CHECKSUM_MISMATCH`] before writing the header or running the
/// reservoir tail: keys the pass copied sit past `len`, so nothing is
/// committed and the host re-sends the slice.
pub fn receive_kernel(
    ctx: &mut DpuContext<'_>,
    layout: &MramLayout,
    sealed: bool,
) -> SimResult<u64> {
    let mut hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let staged = hdr.stage_len;
    if staged == 0 {
        return Ok(0);
    }
    // A corrupted stage_len can point past the staging region (and past
    // the seal slot): reject before reading out of bounds.
    if sealed && staged >= layout.stage_edges {
        return Ok(CHECKSUM_MISMATCH);
    }

    // Phase 1: bulk copy while the sample has room.
    let room = hdr.cap - hdr.len;
    let bulk = staged.min(room);
    let span = if sealed { staged } else { bulk };
    let nr_t = ctx.nr_tasklets() as u64;
    let mut digest = 0u64;
    if span > 0 {
        let dst_base = hdr.len;
        // Edges per WRAM chunk: half a tasklet's budget.
        let chunk = ((ctx.wram_per_tasklet() / 8) / 2).max(8) as u64;
        ctx.for_each_tasklet(|t| {
            let mut buf = t.alloc_wram::<u64>(chunk as usize)?;
            // Strided blocks: tasklet i handles blocks i, i+T, i+2T, ...
            let mut block = t.id() as u64;
            loop {
                let start = block * chunk;
                if start >= span {
                    break;
                }
                let n = chunk.min(span - start) as usize;
                t.mram_read(layout.staging_slot(start), &mut buf[..n])?;
                let copy = n.min(bulk.saturating_sub(start) as usize);
                if copy > 0 {
                    t.mram_write(layout.sample_slot(dst_base + start), &buf[..copy])?;
                    t.charge(copy as u64 * COPY_INSTR_PER_EDGE);
                }
                if sealed {
                    digest = digest.wrapping_add(checksum::digest_at(start, &buf[..n]));
                    t.charge(n as u64 * checksum::FOLD_INSTR_PER_WORD);
                }
                block += nr_t;
            }
            Ok(())
        })?;
    }
    if sealed {
        let mut t0 = ctx.tasklet(0)?;
        let seal = t0.mram_read_one::<u64>(layout.staging_slot(staged))?;
        // Sum one partial per tasklet, then compare.
        t0.charge(nr_t + 4);
        if seal != digest {
            return Ok(CHECKSUM_MISMATCH);
        }
    }
    hdr.len += bulk;
    hdr.seen += bulk;

    // Phase 2: reservoir sampling for the overflow tail (sequential by
    // nature: each decision depends on the running stream position t).
    if bulk < staged {
        let mut t0 = ctx.tasklet(0)?;
        let chunk = (t0.wram_free() / 8 / 2).max(8) as u64;
        let mut buf = t0.alloc_wram::<u64>(chunk as usize)?;
        let mut pos = bulk;
        let mut draws = 0;
        while pos < staged {
            let n = chunk.min(staged - pos) as usize;
            t0.mram_read(layout.staging_slot(pos), &mut buf[..n])?;
            for &key in &buf[..n] {
                hdr.seen += 1;
                let slot = rng::reservoir_slot(&mut hdr.rng, hdr.seen, hdr.len, hdr.cap);
                draws += slot.draws();
                if let rng::Slot::Replace(victim) = slot {
                    t0.mram_write_one(layout.sample_slot(victim), key)?;
                }
            }
            pos += n as u64;
        }
        t0.charge((staged - bulk) * RESERVOIR_INSTR_PER_EDGE);
        rng::charge_draws(&mut t0, draws);
    }

    hdr.stage_len = 0;
    let mut t0 = ctx.tasklet(0)?;
    hdr.write(&mut t0)?;
    Ok(staged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::edge_key;
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    fn push_batch(sys: &mut PimSystem, layout: &MramLayout, edges: &[u64]) {
        assert!(edges.len() as u64 <= layout.stage_edges);
        sys.push(&[
            HostWrite {
                dpu: 0,
                offset: layout.staging_off,
                data: &encode_slice(edges),
            },
            HostWrite {
                dpu: 0,
                offset: super::super::layout::HDR_STAGE_LEN,
                data: &encode_slice(&[edges.len() as u64]),
            },
        ])
        .unwrap();
    }

    fn setup(capacity: u64) -> (PimSystem, MramLayout) {
        let config = PimConfig::tiny();
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute(config.mram_capacity, 64, 0, Some(capacity)).unwrap();
        let hdr = Header {
            cap: capacity,
            rng: rng::seed_for_dpu(7, 0),
            ..Header::default()
        };
        sys.push(&[HostWrite {
            dpu: 0,
            offset: 0,
            data: &hdr.encode(),
        }])
        .unwrap();
        (sys, layout)
    }

    fn read_sample(sys: &PimSystem, layout: &MramLayout, len: u64) -> Vec<u64> {
        decode_slice(
            sys.dpu(0)
                .unwrap()
                .host_read(layout.sample_off, len * 8)
                .unwrap(),
        )
    }

    fn read_header(sys: &mut PimSystem) -> Header {
        Header::decode(&sys.gather(0, 64).unwrap()[0])
    }

    #[test]
    fn bulk_path_copies_everything_in_order() {
        let (mut sys, layout) = setup(100);
        let edges: Vec<u64> = (0..50u32).map(|i| edge_key(i, i + 1)).collect();
        push_batch(&mut sys, &layout, &edges);
        sys.execute(|ctx| receive_kernel(ctx, &layout, false))
            .unwrap();
        let hdr = read_header(&mut sys);
        assert_eq!(hdr.len, 50);
        assert_eq!(hdr.seen, 50);
        assert_eq!(hdr.stage_len, 0);
        assert_eq!(read_sample(&sys, &layout, 50), edges);
    }

    #[test]
    fn multiple_batches_accumulate() {
        let (mut sys, layout) = setup(100);
        for round in 0..3u32 {
            let edges: Vec<u64> = (0..20u32).map(|i| edge_key(round * 20 + i, 999)).collect();
            push_batch(&mut sys, &layout, &edges);
            sys.execute(|ctx| receive_kernel(ctx, &layout, false))
                .unwrap();
        }
        let hdr = read_header(&mut sys);
        assert_eq!(hdr.len, 60);
        assert_eq!(hdr.seen, 60);
    }

    #[test]
    fn overflow_triggers_reservoir() {
        let (mut sys, layout) = setup(16);
        // Stream 4 batches of 16 → 64 seen, 16 resident.
        for round in 0..4u32 {
            let edges: Vec<u64> = (0..16u32).map(|i| edge_key(round * 16 + i, 77)).collect();
            push_batch(&mut sys, &layout, &edges);
            sys.execute(|ctx| receive_kernel(ctx, &layout, false))
                .unwrap();
        }
        let hdr = read_header(&mut sys);
        assert_eq!(hdr.len, 16);
        assert_eq!(hdr.seen, 64);
        // Sample holds a subset of the stream.
        let sample = read_sample(&sys, &layout, 16);
        for key in sample {
            let (u, v) = crate::kernel::edge_unkey(key);
            assert!(u < 64 && v == 77);
        }
        // RNG state advanced.
        assert_ne!(hdr.rng, rng::seed_for_dpu(7, 0));
    }

    #[test]
    fn reservoir_retention_is_uniform_across_stream() {
        // Many independent DPoch runs: early items retained ≈ M/t share.
        let trials = 300u64;
        let m = 8u64;
        let stream = 64u32;
        let mut early = 0u64;
        for trial in 0..trials {
            let config = PimConfig::tiny();
            let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
            let layout = MramLayout::compute(config.mram_capacity, 64, 0, Some(m)).unwrap();
            let hdr = Header {
                cap: m,
                rng: rng::seed_for_dpu(trial, 0),
                ..Header::default()
            };
            sys.push(&[HostWrite {
                dpu: 0,
                offset: 0,
                data: &hdr.encode(),
            }])
            .unwrap();
            let edges: Vec<u64> = (0..stream).map(|i| edge_key(i, 1)).collect();
            push_batch(&mut sys, &layout, &edges);
            sys.execute(|ctx| receive_kernel(ctx, &layout, false))
                .unwrap();
            early += read_sample(&sys, &layout, m)
                .iter()
                .filter(|&&k| crate::kernel::key_first(k) < stream / 2)
                .count() as u64;
        }
        let expected = trials as f64 * m as f64 / 2.0;
        let dev = (early as f64 - expected).abs() / expected;
        assert!(dev < 0.12, "early retention deviates by {dev}");
    }

    #[test]
    fn empty_staging_is_a_noop() {
        let (mut sys, layout) = setup(10);
        let processed = sys
            .execute(|ctx| receive_kernel(ctx, &layout, false))
            .unwrap()[0];
        assert_eq!(processed, 0);
        assert_eq!(read_header(&mut sys).len, 0);
    }

    /// Pushes a sealed batch (keys + digest) the hardened session way.
    fn push_sealed(sys: &mut PimSystem, layout: &MramLayout, edges: &[u64]) {
        assert!((edges.len() as u64) < layout.stage_edges);
        let mut payload = edges.to_vec();
        payload.push(checksum::digest_at(0, edges));
        sys.push(&[
            HostWrite {
                dpu: 0,
                offset: layout.staging_off,
                data: &encode_slice(&payload),
            },
            HostWrite {
                dpu: 0,
                offset: super::super::layout::HDR_STAGE_LEN,
                data: &encode_slice(&[edges.len() as u64]),
            },
        ])
        .unwrap();
    }

    #[test]
    fn hardened_receive_accepts_a_sealed_batch() {
        let (mut sys, layout) = setup(100);
        let edges: Vec<u64> = (0..40u32).map(|i| edge_key(i, i + 1)).collect();
        push_sealed(&mut sys, &layout, &edges);
        let processed = sys
            .execute(|ctx| receive_kernel(ctx, &layout, true))
            .unwrap()[0];
        assert_eq!(processed, 40);
        let hdr = read_header(&mut sys);
        assert_eq!(hdr.len, 40);
        assert_eq!(hdr.stage_len, 0);
        assert_eq!(read_sample(&sys, &layout, 40), edges);
    }

    #[test]
    fn hardened_receive_rejects_a_corrupted_batch() {
        let (mut sys, layout) = setup(100);
        let edges: Vec<u64> = (0..40u32).map(|i| edge_key(i, i + 1)).collect();
        push_sealed(&mut sys, &layout, &edges);
        // Flip one byte of a staged key behind the checksum's back.
        let byte = sys
            .dpu(0)
            .unwrap()
            .host_read(layout.staging_slot(7), 1)
            .unwrap()[0];
        sys.push(&[HostWrite {
            dpu: 0,
            offset: layout.staging_slot(7),
            data: &[byte ^ 0xA5],
        }])
        .unwrap();
        let processed = sys
            .execute(|ctx| receive_kernel(ctx, &layout, true))
            .unwrap()[0];
        assert_eq!(processed, crate::kernel::checksum::CHECKSUM_MISMATCH);
        // The sample was not touched: the batch can be re-pushed cleanly.
        let hdr = read_header(&mut sys);
        assert_eq!(hdr.len, 0);
        assert_eq!(hdr.seen, 0);
        push_sealed(&mut sys, &layout, &edges);
        let processed = sys
            .execute(|ctx| receive_kernel(ctx, &layout, true))
            .unwrap()[0];
        assert_eq!(processed, 40);
        assert_eq!(read_sample(&sys, &layout, 40), edges);
    }

    #[test]
    fn sealed_receive_commits_nothing_when_a_tail_key_is_corrupt() {
        let slice: Vec<u64> = (0..20u32).map(|i| edge_key(100 + i, 7)).collect();
        // A part-full sample lands 6 keys in bulk and 14 in the reservoir
        // tail; a full one sends all 20 down the tail.
        for prefill in [10u32, 16] {
            let run = |corrupt: bool| {
                let (mut sys, layout) = setup(16);
                let resident: Vec<u64> = (0..prefill).map(|i| edge_key(i, i + 1)).collect();
                push_sealed(&mut sys, &layout, &resident);
                sys.execute(|ctx| receive_kernel(ctx, &layout, true))
                    .unwrap();
                push_sealed(&mut sys, &layout, &slice);
                if corrupt {
                    // Flip one byte of key 15, which only the tail reads.
                    let at = layout.staging_slot(15) + 3;
                    let byte = sys.dpu(0).unwrap().host_read(at, 1).unwrap()[0];
                    sys.push(&[HostWrite {
                        dpu: 0,
                        offset: at,
                        data: &[byte ^ 0xA5],
                    }])
                    .unwrap();
                    let before = read_header(&mut sys);
                    let header = sys.dpu(0).unwrap().host_read(0, 64).unwrap().to_vec();
                    let sample = read_sample(&sys, &layout, before.len);
                    let processed = sys
                        .execute(|ctx| receive_kernel(ctx, &layout, true))
                        .unwrap()[0];
                    assert_eq!(processed, CHECKSUM_MISMATCH, "prefill {prefill}");
                    // Header (len, seen, RNG, stage_len) and the resident
                    // sample are byte-identical: nothing was committed.
                    assert_eq!(sys.dpu(0).unwrap().host_read(0, 64).unwrap(), header);
                    assert_eq!(read_sample(&sys, &layout, before.len), sample);
                    // The host's re-send lands as if nothing had happened.
                    push_sealed(&mut sys, &layout, &slice);
                }
                let processed = sys
                    .execute(|ctx| receive_kernel(ctx, &layout, true))
                    .unwrap()[0];
                assert_eq!(processed, 20);
                let hdr = read_header(&mut sys);
                (hdr, read_sample(&sys, &layout, hdr.len))
            };
            let (hdr, sample) = run(true);
            assert_eq!((hdr.len, hdr.seen), (16, u64::from(prefill) + 20));
            assert_eq!((hdr, sample), run(false), "prefill {prefill}");
        }
    }

    #[test]
    fn hardened_receive_rejects_a_corrupted_stage_len() {
        let (mut sys, layout) = setup(100);
        let edges: Vec<u64> = (0..8u32).map(|i| edge_key(i, 9)).collect();
        push_sealed(&mut sys, &layout, &edges);
        // Corrupt the stage_len header word to an out-of-range count.
        sys.push(&[HostWrite {
            dpu: 0,
            offset: super::super::layout::HDR_STAGE_LEN,
            data: &encode_slice(&[layout.stage_edges + 100]),
        }])
        .unwrap();
        let processed = sys
            .execute(|ctx| receive_kernel(ctx, &layout, true))
            .unwrap()[0];
        assert_eq!(processed, crate::kernel::checksum::CHECKSUM_MISMATCH);
        assert_eq!(read_header(&mut sys).len, 0);
    }

    #[test]
    fn sealed_receive_refuses_every_stage_len_byte_flip() {
        let edges: Vec<u64> = (0..8u32).map(|i| edge_key(i, 9)).collect();
        let flips = (0..8).flat_map(|byte| [0x01u64, 0x04, 0xA5].map(|m| m << (8 * byte)));
        for mask in flips {
            let (mut sys, layout) = setup(100);
            // Hardened sessions zero the staging region at bank init.
            let zeros = vec![0u8; (layout.stage_edges * 8) as usize];
            sys.push(&[HostWrite {
                dpu: 0,
                offset: layout.staging_off,
                data: &zeros,
            }])
            .unwrap();
            push_sealed(&mut sys, &layout, &edges);
            sys.push(&[HostWrite {
                dpu: 0,
                offset: super::super::layout::HDR_STAGE_LEN,
                data: &encode_slice(&[edges.len() as u64 ^ mask]),
            }])
            .unwrap();
            let processed = sys
                .execute(|ctx| receive_kernel(ctx, &layout, true))
                .unwrap()[0];
            assert_eq!(processed, CHECKSUM_MISMATCH, "stage_len ^ {mask:#x}");
            assert_eq!(read_header(&mut sys).len, 0);
        }
    }
}
