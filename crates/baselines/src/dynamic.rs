//! Dynamic-graph workload drivers (Fig. 7).
//!
//! The paper splits a graph into 10 batches and, after each update,
//! recounts triangles on everything received so far, accumulating time:
//!
//! * **CPU** — must rebuild CSR from the *full* COO (all updates so far)
//!   before every count; the rebuild is what sinks it.
//! * **GPU proxy** — appends the batch to its resident representation
//!   (modeled) and recounts (modeled).
//! * **PIM** — appends the batch into the per-core samples (a
//!   [`pim_tc::TcSession`]) and recounts; no rebuild, no re-transfer of
//!   old edges.

use crate::cpu_csr::cpu_count;
use crate::gpu_proxy::GpuModel;
use pim_graph::{CooGraph, Edge};
use pim_sim::{FunctionalBackend, PimBackend, RankCluster, SystemReport, TimedBackend};
use pim_tc::{Capture, ExecBackend, SessionCheckpoint, TcConfig, TcError, TcSession};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Durable-checkpoint options for [`pim_dynamic_with`].
#[derive(Clone, Debug)]
pub struct DynamicCheckpoint {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: PathBuf,
    /// Write a checkpoint after every `every` counted updates (0 never
    /// writes — only meaningful together with `resume`).
    pub every: u64,
    /// Resume from an existing checkpoint in `dir`: updates up to the
    /// checkpoint's watermark are skipped and the session continues the
    /// stream from the snapshot, converging to the same final estimate as
    /// an uninterrupted run (the `session_fuzz` resume property). A
    /// missing checkpoint file starts a fresh run; a corrupt one is a
    /// [`TcError::Checkpoint`].
    pub resume: bool,
    /// Stop cleanly after this many updates have been counted in this
    /// process (0 = run to the end). Stands in for a process kill at an
    /// append boundary in tests and CI: a checkpointed run stopped here
    /// leaves exactly the on-disk state a kill after the last checkpoint
    /// write would.
    pub stop_after: u64,
}

/// Per-update observer for [`pim_dynamic_with`]: invoked after every
/// counted update, before the next append, with its timing. The events
/// so far are on the hub in [`Capture::metrics`].
pub type UpdateObserver<'a> = &'a mut dyn FnMut(&UpdateTiming);

/// Per-update timing for one system.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct UpdateTiming {
    /// Update index (0-based).
    pub update: usize,
    /// Seconds for this update (integration + count).
    pub secs: f64,
    /// Cumulative seconds including this update.
    pub cumulative_secs: f64,
    /// Triangle count (or estimate) after this update.
    pub triangles: f64,
}

/// Runs the CPU dynamic workload: full COO accumulation + CSR rebuild +
/// count per update. Times are measured.
pub fn cpu_dynamic(batches: &[Vec<Edge>]) -> Vec<UpdateTiming> {
    let mut graph = CooGraph::new();
    let mut cumulative = 0.0;
    let mut out = Vec::with_capacity(batches.len());
    for (update, batch) in batches.iter().enumerate() {
        graph.extend_edges(batch);
        let run = cpu_count(&graph);
        let secs = run.total_secs();
        cumulative += secs;
        out.push(UpdateTiming {
            update,
            secs,
            cumulative_secs: cumulative,
            triangles: run.triangles as f64,
        });
    }
    out
}

/// Runs the GPU-proxy dynamic workload: modeled append + modeled count.
pub fn gpu_dynamic(batches: &[Vec<Edge>], model: &GpuModel) -> Vec<UpdateTiming> {
    let mut graph = CooGraph::new();
    let mut cumulative = 0.0;
    let mut out = Vec::with_capacity(batches.len());
    for (update, batch) in batches.iter().enumerate() {
        graph.extend_edges(batch);
        let update_secs = model.update_cost(batch);
        let run = model.count(&graph);
        let secs = update_secs + run.count_secs;
        cumulative += secs;
        out.push(UpdateTiming {
            update,
            secs,
            cumulative_secs: cumulative,
            triangles: run.triangles as f64,
        });
    }
    out
}

/// Runs the PIM dynamic workload through a [`TcSession`]: per-update
/// append + recount, with modeled (+ measured host) times taken from the
/// session's phase clock. Executes on the engine named by
/// [`TcConfig::backend`] (functional runs report zero seconds but
/// identical counts).
pub fn pim_dynamic(batches: &[Vec<Edge>], config: &TcConfig) -> Result<Vec<UpdateTiming>, TcError> {
    pim_dynamic_with(batches, config, DynamicRun::default()).map(|(timings, _)| timings)
}

/// Options for [`pim_dynamic_with`]; the default is a plain
/// [`pim_dynamic`] run.
#[derive(Default)]
pub struct DynamicRun<'a> {
    /// Live metrics hub for the session.
    pub capture: Capture,
    /// Called after every counted update.
    pub observer: Option<UpdateObserver<'a>>,
    /// Durable checkpoints; `None` starts fresh and never saves.
    pub checkpoint: Option<DynamicCheckpoint>,
}

/// [`pim_dynamic`] with a [`DynamicRun`]. Also returns the final
/// [`SystemReport`] so callers can reconcile the metric stream against
/// the backend's own counters. Returns the timings of the updates
/// processed *by this process* (resumed runs re-report nothing for
/// skipped updates).
///
/// Like [`pim_tc::count_triangles`], the session runs through a
/// [`RankCluster`] sharded over [`TcConfig::ranks`] (a verbatim
/// pass-through at the default `ranks = 1`), so dynamic workloads scale
/// by adding ranks too.
pub fn pim_dynamic_with(
    batches: &[Vec<Edge>],
    config: &TcConfig,
    run: DynamicRun<'_>,
) -> Result<(Vec<UpdateTiming>, SystemReport), TcError> {
    match config.backend {
        ExecBackend::Timed => run_in::<TimedBackend>(batches, config, run),
        ExecBackend::Functional => run_in::<FunctionalBackend>(batches, config, run),
    }
}

/// The one per-update loop, on a cluster of `B` machines.
fn run_in<B: PimBackend>(
    batches: &[Vec<Edge>],
    config: &TcConfig,
    mut run: DynamicRun<'_>,
) -> Result<(Vec<UpdateTiming>, SystemReport), TcError> {
    let metrics = run.capture.metrics.take();
    let (mut session, start_from) = match &run.checkpoint {
        Some(ckpt) if ckpt.resume && SessionCheckpoint::exists(&ckpt.dir) => {
            let snap = SessionCheckpoint::load(&ckpt.dir)?;
            // The snapshot carries its own configuration, so a resumed run
            // keeps the checkpointed shape even if CLI flags drifted.
            let session = TcSession::<RankCluster<B>>::restore_cluster(&snap, metrics)?;
            (session, snap.watermark as usize)
        }
        _ => (
            TcSession::<RankCluster<B>>::start_cluster_metered(config, metrics)?,
            0,
        ),
    };
    let mut out = Vec::with_capacity(batches.len().saturating_sub(start_from));
    let mut prev_total = 0.0;
    for (update, batch) in batches.iter().enumerate().skip(start_from) {
        session.append(batch)?;
        let result = session.count()?;
        // Per-update time = growth of the non-setup clock (setup happens
        // once and the paper's Fig. 7 accumulates per-update work).
        let total = result.times.without_setup();
        let secs = total - prev_total;
        prev_total = total;
        let timing = UpdateTiming {
            update,
            secs,
            cumulative_secs: total,
            triangles: result.estimate,
        };
        if let Some(obs) = run.observer.as_mut() {
            obs(&timing);
        }
        out.push(timing);
        if let Some(ckpt) = &run.checkpoint {
            let counted = (update + 1) as u64;
            if ckpt.every > 0 && counted.is_multiple_of(ckpt.every) {
                session.checkpoint(counted)?.save(&ckpt.dir)?;
            }
            if ckpt.stop_after > 0 && counted - start_from as u64 >= ckpt.stop_after {
                break;
            }
        }
    }
    let report = session.system_report();
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_graph::{gen, prep, triangle};
    use pim_sim::PimConfig;

    fn batches() -> (CooGraph, Vec<Vec<Edge>>) {
        let g = gen::erdos_renyi(150, 0.1, 3);
        let (g, _) = prep::preprocessed(&g, 0);
        let b = g.split_batches(5);
        (g, b)
    }

    fn pim_config() -> TcConfig {
        TcConfig::builder()
            .colors(2)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(256)
            .build()
            .unwrap()
    }

    #[test]
    fn all_three_systems_agree_on_final_count() {
        let (g, batches) = batches();
        let expect = triangle::count_exact(&g) as f64;
        let cpu = cpu_dynamic(&batches);
        let gpu = gpu_dynamic(&batches, &GpuModel::default());
        let pim = pim_dynamic(&batches, &pim_config()).unwrap();
        assert_eq!(cpu.last().unwrap().triangles, expect);
        assert_eq!(gpu.last().unwrap().triangles, expect);
        assert_eq!(pim.last().unwrap().triangles, expect);
    }

    #[test]
    fn intermediate_counts_track_the_prefix() {
        let (_, batches) = batches();
        let cpu = cpu_dynamic(&batches);
        let mut prefix = CooGraph::new();
        for (i, batch) in batches.iter().enumerate() {
            prefix.extend_edges(batch);
            assert_eq!(cpu[i].triangles, triangle::count_exact(&prefix) as f64);
        }
    }

    #[test]
    fn kill_and_resume_converges_to_the_uninterrupted_run() {
        let (_, batches) = batches();
        let config = pim_config();
        let full = pim_dynamic(&batches, &config).unwrap();
        let dir = std::env::temp_dir().join(format!("pimtc_dyn_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First process: checkpoint every update, "die" after two.
        let ck = DynamicCheckpoint {
            dir: dir.clone(),
            every: 1,
            resume: false,
            stop_after: 2,
        };
        let run = DynamicRun {
            checkpoint: Some(ck),
            ..DynamicRun::default()
        };
        let (first, _) = pim_dynamic_with(&batches, &config, run).unwrap();
        assert_eq!(first.len(), 2);
        // Second process: resume from disk, run to the end.
        let ck = DynamicCheckpoint {
            dir: dir.clone(),
            every: 1,
            resume: true,
            stop_after: 0,
        };
        let run = DynamicRun {
            checkpoint: Some(ck),
            ..DynamicRun::default()
        };
        let (rest, _) = pim_dynamic_with(&batches, &config, run).unwrap();
        assert_eq!(rest.len(), batches.len() - 2);
        assert_eq!(rest.first().unwrap().update, 2);
        assert_eq!(
            rest.last().unwrap().triangles.to_bits(),
            full.last().unwrap().triangles.to_bits(),
            "resumed stream must converge to the uninterrupted count"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cumulative_times_are_monotone() {
        let (_, batches) = batches();
        for timings in [
            cpu_dynamic(&batches),
            gpu_dynamic(&batches, &GpuModel::default()),
            pim_dynamic(&batches, &pim_config()).unwrap(),
        ] {
            assert_eq!(timings.len(), 5);
            for w in timings.windows(2) {
                assert!(w[1].cumulative_secs >= w[0].cumulative_secs);
            }
        }
    }
}
