//! Durable, crash-consistent session checkpoints.
//!
//! A [`SessionCheckpoint`] is a complete snapshot of a [`TcSession`]'s
//! recoverable state — the per-partition reservoir banks (header words,
//! resident sample, remap prefix), the host-side Misra-Gries summary, the
//! sampling-stream cursors (`route_granules`, `chunks_done`), the RNG
//! journals when enabled, and an update watermark recording how far into
//! the edge stream the snapshot reaches. `pimtc dynamic --checkpoint DIR`
//! writes one at a configurable append cadence;
//! `--checkpoint DIR --resume` rebuilds the session from it and continues
//! the stream, converging to the same final count as an uninterrupted run.
//!
//! The on-disk format is versioned and checksummed:
//!
//! ```text
//! magic "PIMTCKPT" (8) | version u32 LE | body_len u64 LE |
//! fnv1a64(body) u64 LE | body (JSON, UTF-8)
//! ```
//!
//! Writes are atomic — the file is staged as `session.ckpt.tmp`, synced,
//! then renamed over [`CHECKPOINT_FILE`] — so a process killed mid-write
//! leaves the previous checkpoint intact, never a torn one. Loads verify
//! magic, version, length, and the FNV-1a-64 digest before parsing; a
//! truncated or bit-flipped file is refused with a
//! [`TcError::Checkpoint`] naming what failed, never silently loaded.
//!
//! [`TcSession`]: crate::TcSession

use crate::config::TcConfig;
use crate::error::TcError;
use pim_stream::PartitionJournal;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// On-disk checkpoint format version. Bumped on any incompatible change
/// to the header or body layout; loads refuse other versions.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File name of the checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "session.ckpt";

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 8] = b"PIMTCKPT";

/// Fixed-size prefix: magic + version + body length + body digest.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// FNV-1a-64 over raw bytes (the body digest). Kept byte-oriented and
/// local: the kernel-side `digest_at` seals 64-bit MRAM words, while
/// checkpoints hash a UTF-8 body of arbitrary length.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One partition's bank state, read through the free host inspection
/// channel at checkpoint time and written back verbatim on restore.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BankSnapshot {
    /// The eight decoded header words (cap, len, seen, rng, remap_len,
    /// result, stage_len, index_len).
    pub header: Vec<u64>,
    /// Resident sample keys, slot for slot (`len` entries).
    pub sample: Vec<u64>,
    /// The packed remap-table prefix (`remap_len` entries).
    pub remap: Vec<u64>,
}

/// The host-side Misra-Gries summary, dumped deterministically
/// (entries sorted by item id — see `MisraGries::snapshot`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummarySnapshot {
    /// Summary capacity `K`.
    pub capacity: u64,
    /// Items offered so far.
    pub items_seen: u64,
    /// `(item, estimated_count)` pairs, sorted by item.
    pub entries: Vec<(u32, u64)>,
}

/// A complete, restorable snapshot of a [`crate::TcSession`].
///
/// Built by [`crate::TcSession::checkpoint`], persisted with
/// [`SessionCheckpoint::save`], reloaded with [`SessionCheckpoint::load`],
/// and turned back into a live session by
/// [`crate::TcSession::restore_cluster`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// The full session configuration; restore rebuilds from it, so a
    /// resumed run uses the checkpointed shape even if CLI flags drift.
    pub config: TcConfig,
    /// Caller-defined stream position (for `pimtc dynamic`: the number of
    /// update batches fully applied and counted). Resume skips past it.
    pub watermark: u64,
    /// Edges offered to the session so far.
    pub offered: u64,
    /// Edges kept by uniform pre-sampling so far.
    pub kept: u64,
    /// Routing granules consumed — the sampling-stream cursor that makes
    /// a resumed stream continue exactly where the snapshot stopped.
    pub route_granules: u64,
    /// Streamed chunks ingested so far.
    pub chunks_done: u64,
    /// High-water mark of routed bytes materialized on the host.
    pub peak_routed_bytes: u64,
    /// Edges routed to each partition (the recovery completeness oracle).
    pub routed_per_partition: Vec<u64>,
    /// Stable heavy-hitter remap assignments (`old id → new id`).
    pub remap_table: Vec<(u32, u32)>,
    /// Next fresh remap target id (allocated downward from `u32::MAX`).
    pub next_new_id: u32,
    /// Whether the remap table has grown since it was last pushed.
    pub remap_dirty: bool,
    /// Misra-Gries summary, when the session tracks heavy hitters.
    pub summary: Option<SummarySnapshot>,
    /// Per-partition RNG journals, when journaling is on — so a restored
    /// session keeps its replay-based recovery and scrubbing abilities.
    pub journals: Option<Vec<PartitionJournal>>,
    /// Every partition's bank, in partition order.
    pub banks: Vec<BankSnapshot>,
}

impl SessionCheckpoint {
    /// Path of the checkpoint file inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CHECKPOINT_FILE)
    }

    /// Serializes and atomically persists the snapshot into `dir`
    /// (created if missing): the bytes are staged at `session.ckpt.tmp`,
    /// synced to disk, then renamed over [`CHECKPOINT_FILE`]. Returns the
    /// final path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, TcError> {
        let body = serde_json::to_string(self)
            .map_err(|e| TcError::Checkpoint(format!("serializing snapshot: {e}")))?;
        let body = body.into_bytes();
        let mut bytes = Vec::with_capacity(HEADER_LEN + body.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a_bytes(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let err = |stage: &str, e: std::io::Error| {
            TcError::Checkpoint(format!("{stage} {}: {e}", dir.display()))
        };
        fs::create_dir_all(dir).map_err(|e| err("creating checkpoint dir", e))?;
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        {
            let mut f = fs::File::create(&tmp).map_err(|e| err("staging checkpoint in", e))?;
            f.write_all(&bytes)
                .and_then(|()| f.sync_all())
                .map_err(|e| err("writing checkpoint in", e))?;
        }
        let path = Self::path_in(dir);
        fs::rename(&tmp, &path).map_err(|e| err("publishing checkpoint in", e))?;
        Ok(path)
    }

    /// Loads and verifies the checkpoint in `dir`. Refuses — with a
    /// [`TcError::Checkpoint`] naming the failure — files that are
    /// missing, truncated, carry the wrong magic or version, or whose
    /// body fails the FNV-1a-64 digest.
    pub fn load(dir: &Path) -> Result<SessionCheckpoint, TcError> {
        let path = Self::path_in(dir);
        let bytes = fs::read(&path).map_err(|e| {
            TcError::Checkpoint(format!("reading checkpoint {}: {e}", path.display()))
        })?;
        Self::decode(&bytes)
            .map_err(|msg| TcError::Checkpoint(format!("checkpoint {}: {msg}", path.display())))
    }

    /// Whether `dir` holds a checkpoint file at all (valid or not).
    pub fn exists(dir: &Path) -> bool {
        Self::path_in(dir).is_file()
    }

    /// Parses and verifies a checkpoint image.
    fn decode(bytes: &[u8]) -> Result<SessionCheckpoint, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!(
                "truncated: {} bytes is shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ));
        }
        if &bytes[..8] != MAGIC {
            return Err("bad magic: not a pim-tc checkpoint file".into());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "format version {version} is not the supported version {CHECKPOINT_VERSION}"
            ));
        }
        let body_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let digest = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let body = &bytes[HEADER_LEN..];
        if body.len() != body_len {
            return Err(format!(
                "truncated: header promises a {body_len}-byte body, found {} bytes",
                body.len()
            ));
        }
        let actual = fnv1a_bytes(body);
        if actual != digest {
            return Err(format!(
                "checksum mismatch: body hashes to {actual:#018x}, header says {digest:#018x}"
            ));
        }
        let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        let snap: SessionCheckpoint =
            serde_json::from_str(text).map_err(|e| format!("parsing body: {e}"))?;
        if snap.version != version {
            return Err(format!(
                "body records version {} but the header says {version}",
                snap.version
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pimtc_ckpt_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_snapshot() -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            config: TcConfig::builder().colors(2).build().unwrap(),
            watermark: 3,
            offered: 120,
            kept: 117,
            route_granules: 5,
            chunks_done: 4,
            peak_routed_bytes: 4096,
            routed_per_partition: vec![40, 38, 39, 0],
            remap_table: vec![(9, u32::MAX)],
            next_new_id: u32::MAX - 1,
            remap_dirty: true,
            summary: Some(SummarySnapshot {
                capacity: 8,
                items_seen: 240,
                entries: vec![(9, 31), (17, 4)],
            }),
            journals: None,
            banks: vec![BankSnapshot {
                header: vec![64, 2, 2, 0x1234, 1, 0, 0, 0],
                sample: vec![77, 88],
                remap: vec![42],
            }],
        }
    }

    #[test]
    fn save_load_round_trips_every_field() {
        let d = dir("roundtrip");
        let snap = sample_snapshot();
        let path = snap.save(&d).unwrap();
        assert_eq!(path, SessionCheckpoint::path_in(&d));
        assert!(SessionCheckpoint::exists(&d));
        let back = SessionCheckpoint::load(&d).unwrap();
        assert_eq!(back.watermark, snap.watermark);
        assert_eq!(back.offered, snap.offered);
        assert_eq!(back.route_granules, snap.route_granules);
        assert_eq!(back.routed_per_partition, snap.routed_per_partition);
        assert_eq!(back.remap_table, snap.remap_table);
        assert_eq!(back.summary, snap.summary);
        assert_eq!(back.banks, snap.banks);
        assert_eq!(back.config.colors, snap.config.colors);
        // No temp file left behind.
        assert!(!d.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_checkpoint_is_a_clear_error() {
        let d = dir("missing");
        let err = SessionCheckpoint::load(&d).unwrap_err();
        assert!(matches!(err, TcError::Checkpoint(_)), "got {err:?}");
        assert!(err.to_string().contains("reading checkpoint"));
    }

    #[test]
    fn bit_flips_are_refused_by_checksum() {
        let d = dir("bitflip");
        let snap = sample_snapshot();
        let path = snap.save(&d).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = SessionCheckpoint::load(&d).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "got: {err}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn truncation_is_refused() {
        let d = dir("truncate");
        let snap = sample_snapshot();
        let path = snap.save(&d).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = SessionCheckpoint::load(&d).unwrap_err().to_string();
        assert!(err.contains("truncated"), "got: {err}");
        // Truncated below the fixed header too.
        fs::write(&path, &bytes[..HEADER_LEN - 3]).unwrap();
        let err = SessionCheckpoint::load(&d).unwrap_err().to_string();
        assert!(err.contains("truncated"), "got: {err}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn wrong_magic_and_wrong_version_are_refused() {
        let d = dir("magic");
        let snap = sample_snapshot();
        let path = snap.save(&d).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let good = bytes.clone();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        let err = SessionCheckpoint::load(&d).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "got: {err}");
        let mut bytes = good;
        bytes[8] = CHECKPOINT_VERSION as u8 + 1;
        fs::write(&path, &bytes).unwrap();
        let err = SessionCheckpoint::load(&d).unwrap_err().to_string();
        assert!(err.contains("version"), "got: {err}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn fnv_vector_pins_the_digest() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
