//! Checkpoint-loader fuzzing: `PIMTCKPT` files cross a trust boundary, so
//! a checksum-valid file with a hostile body must be refused with an
//! error, never crash the process that restores it.
//!
//! Each case mutates the JSON body of a journaled, Misra-Gries-enabled
//! checkpoint, re-seals the FNV-1a digest (so the mutation gets past the
//! integrity check and reaches the session installer), then restores the
//! session and drives it through one append, a count and a scrub. Every
//! step may return `Ok` or `Err`; a panic fails the property.

use pim_graph::{gen, Edge};
use pim_sim::{FunctionalBackend, PimConfig, RankCluster};
use pim_tc::{SessionCheckpoint, TcConfig, TcSession};
use proptest::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

type Session = TcSession<RankCluster<FunctionalBackend>>;

/// Fixed-size prefix of a checkpoint file: magic, version, body length
/// and body digest (see `crates/core/src/checkpoint.rs`).
const HEADER_LEN: usize = 28;

/// Arrays longer than this are journal keys or resident samples: their
/// elements are mutated as a whole (removed, duplicated, truncated), not
/// one by one, so mutations land on structure as often as on data.
const LONG_ARRAY: usize = 16;

fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The checkpoint under mutation (file bytes) and the batch the restored
/// session appends next.
fn fixture() -> &'static (Vec<u8>, Vec<Edge>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<Edge>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut g = gen::chung_lu(
            gen::chung_lu::ChungLuParams {
                n: 120,
                gamma: 2.1,
                avg_degree: 6.0,
                max_degree_frac: 0.4,
            },
            3,
        );
        g.preprocess(0);
        let batches = g.split_batches(3);
        let config = TcConfig::builder()
            .colors(3)
            .misra_gries(16, 4)
            .journal(true)
            .spare_dpus(2)
            .pim(PimConfig {
                total_dpus: 64,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(64)
            .build()
            .unwrap();
        // A count between the appends journals a remap mark, and the
        // second append puts keys past it.
        let mut s = Session::start_cluster(&config).unwrap();
        s.append(&batches[0]).unwrap();
        s.count().unwrap();
        s.append(&batches[1]).unwrap();
        let dir = scratch_dir("fixture");
        let path = s.checkpoint(2).unwrap().save(&dir).unwrap();
        let bytes = std::fs::read(path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (bytes, batches[2].clone())
    })
}

fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pimtc_ckpt_fuzz_{name}_{}", std::process::id()))
}

/// The children of `v`, each flagged with whether it is a mutation
/// target: everything except the scalar elements of long arrays.
fn children(v: &mut Value) -> Vec<(bool, &mut Value)> {
    match v {
        Value::Array(a) => {
            let long = a.len() > LONG_ARRAY;
            a.iter_mut()
                .map(|c| (!long || matches!(c, Value::Array(_) | Value::Object(_)), c))
                .collect()
        }
        Value::Object(o) => o.iter_mut().map(|(_, c)| (true, c)).collect(),
        _ => Vec::new(),
    }
}

fn count_targets(v: &mut Value) -> usize {
    1 + children(v)
        .into_iter()
        .map(|(eligible, c)| {
            let below = count_targets(c);
            if eligible {
                below
            } else {
                below - 1
            }
        })
        .sum::<usize>()
}

/// The `n`-th target in preorder, or how many targets remain past `v`.
fn nth_target(v: &mut Value, n: usize) -> Result<&mut Value, usize> {
    if n == 0 {
        return Ok(v);
    }
    let mut n = n - 1;
    for (eligible, c) in children(v) {
        if !eligible {
            continue;
        }
        match nth_target(c, n) {
            Ok(hit) => return Ok(hit),
            Err(rest) => n = rest,
        }
    }
    Err(n)
}

fn mutate(v: &mut Value, op: u8, x: u64) {
    *v = match std::mem::replace(v, Value::Null) {
        Value::U64(n) => Value::U64(match op % 6 {
            0 => x,
            1 => x % 16,
            2 => n.wrapping_add(1),
            3 => n.wrapping_sub(1),
            4 => n.saturating_mul(2).saturating_add(1),
            _ => u64::MAX,
        }),
        Value::I64(_) => Value::U64(x % 16),
        Value::F64(f) => Value::F64(match op % 3 {
            0 => -f,
            1 => f * 1e6,
            _ => 0.0,
        }),
        Value::Bool(b) => Value::Bool(!b),
        Value::Str(s) => Value::Str(if op.is_multiple_of(2) {
            String::new()
        } else {
            s + "x"
        }),
        Value::Null => Value::U64(x % 16),
        Value::Array(mut a) => {
            if a.is_empty() {
                a.push(Value::U64(x % 16));
            } else {
                let i = x as usize % a.len();
                match op % 5 {
                    0 => drop(a.remove(i)),
                    1 => a.insert(i, a[i].clone()),
                    2 => a.truncate(i),
                    3 => {
                        let last = a.len() - 1;
                        a.swap(i, last);
                    }
                    _ => a.reverse(),
                }
            }
            Value::Array(a)
        }
        Value::Object(mut o) => {
            if !o.is_empty() {
                o.remove(x as usize % o.len());
            }
            Value::Object(o)
        }
    };
}

/// Writes `body` as a correctly sealed checkpoint into `dir`.
fn write_sealed(dir: &Path, header: &[u8], body: &[u8]) {
    let mut bytes = header[..12].to_vec();
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a_bytes(body).to_le_bytes());
    bytes.extend_from_slice(body);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(SessionCheckpoint::path_in(dir), bytes).unwrap();
}

/// Restores and drives the session; any error ends the run early.
fn drive(snap: &SessionCheckpoint, next: &[Edge]) -> Result<(), pim_tc::TcError> {
    let mut s = Session::restore_cluster(snap, None)?;
    s.append(next)?;
    s.count()?;
    s.scrub()?;
    Ok(())
}

#[test]
fn unmutated_checkpoint_restores_and_runs() {
    let (bytes, next) = fixture();
    let dir = scratch_dir("clean");
    write_sealed(&dir, bytes, &bytes[HEADER_LEN..]);
    let snap = SessionCheckpoint::load(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!snap.remap_table.is_empty(), "the fixture must remap");
    let journals = snap.journals.as_ref().unwrap();
    assert!(journals.iter().any(|j| !j.marks().is_empty()), "no marks");
    drive(&snap, next).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sealed checkpoints with mutated bodies load, restore and run, or
    /// fail with an error, but never panic.
    #[test]
    fn mutated_checkpoints_error_or_run(
        mutations in prop::collection::vec((any::<u64>(), 0u8..30, any::<u64>()), 1..4),
    ) {
        let (bytes, next) = fixture();
        let text = std::str::from_utf8(&bytes[HEADER_LEN..]).unwrap();
        let mut body = serde_json::from_str_value(text).unwrap();
        for &(target, op, x) in &mutations {
            let n = target as usize % count_targets(&mut body);
            let node = nth_target(&mut body, n).expect("target in range");
            mutate(node, op, x);
        }
        let body = serde_json::to_string(&body).unwrap();
        let dir = scratch_dir("case");
        write_sealed(&dir, bytes, body.as_bytes());
        let loaded = SessionCheckpoint::load(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        if let Ok(snap) = loaded {
            let _ = drive(&snap, next);
        }
    }
}
