//! Replayable per-partition sampling journals.
//!
//! Every sampling decision a partition's bank makes is a pure function
//! of its RNG seed and the order in which routed keys arrive. A
//! [`PartitionJournal`] pins the arrival side: it records, per
//! partition, the routed keys in arrival order plus *marks* noting where
//! a remap table of a given length was applied.
//!
//! That makes a lost partition's sample set re-derivable with no
//! survivors: replay the journaled steps through the same decision
//! arithmetic (the caller supplies it: the receive kernel's reservoir
//! rule) and apply the journaled remap marks in order.

use serde::{Deserialize, Serialize};

/// The splitmix64 increment (golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 output for input `z` (Steele et al., OOPSLA 2014):
/// the golden-ratio increment, then a full-avalanche 64-bit finalizer,
/// so consecutive inputs give statistically independent outputs. The
/// host router seeds its per-granule samplers with it.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut x = z.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A remap mark: after `offset` journaled keys had been consumed, the
/// first `table_len` entries of the session's (append-only) remap table
/// were applied to the resident sample and the sample was re-sorted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalMark {
    /// Keys consumed before the mark applied.
    pub offset: u64,
    /// Prefix length of the append-only remap table in force.
    pub table_len: u64,
}

/// One step of a journal replay, in recorded order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalStep {
    /// The next routed key.
    Key(u64),
    /// A remap pass with the table's first `table_len` entries.
    Mark(u64),
}

/// The decision journal for one partition: every key routed to it, in
/// arrival order, plus the remap marks. Replaying `keys[..upto]` through
/// the partition's decision arithmetic reconstructs the partition's
/// exact sample state at the point where `upto` keys had been consumed.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PartitionJournal {
    /// The session seed the journal was opened under. Replay seeds from
    /// the session; a restore refuses a journal whose seed differs.
    seed: u64,
    /// The partition index the journal was opened for; a restore refuses
    /// a journal found at another index.
    granule: u64,
    keys: Vec<u64>,
    marks: Vec<JournalMark>,
}

impl PartitionJournal {
    /// An empty journal for partition `granule` of a session seeded
    /// with `seed`.
    pub fn new(seed: u64, granule: u64) -> Self {
        PartitionJournal {
            seed,
            granule,
            keys: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// The session seed the journal was opened under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The partition index the journal was opened for.
    pub fn granule(&self) -> u64 {
        self.granule
    }

    /// Appends a batch of routed keys in arrival order.
    pub fn extend(&mut self, keys: &[u64]) {
        self.keys.extend_from_slice(keys);
    }

    /// Records that a remap pass with the table's first `table_len`
    /// entries ran after all currently journaled keys. Consecutive
    /// duplicate marks collapse (remap is idempotent).
    pub fn mark(&mut self, table_len: u64) {
        let offset = self.keys.len() as u64;
        if let Some(last) = self.marks.last() {
            if last.offset == offset && last.table_len == table_len {
                return;
            }
        }
        self.marks.push(JournalMark { offset, table_len });
    }

    /// Keys journaled so far.
    pub fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    /// True when no keys have been journaled.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The remap marks in order.
    pub fn marks(&self) -> &[JournalMark] {
        &self.marks
    }

    /// Replays the first `upto` journaled keys, interleaving remap marks
    /// at their recorded offsets: a mark fires before the key at its
    /// offset (and after the last key for marks at the replay boundary).
    /// The caller's `step` holds the decision arithmetic; the journal
    /// only guarantees the order.
    pub fn replay(&self, upto: u64, mut step: impl FnMut(JournalStep)) {
        let upto = (upto as usize).min(self.keys.len());
        let mut marks = self.marks.iter().peekable();
        for (i, &key) in self.keys[..upto].iter().enumerate() {
            while let Some(m) = marks.next_if(|m| m.offset == i as u64) {
                step(JournalStep::Mark(m.table_len));
            }
            step(JournalStep::Key(key));
        }
        while let Some(m) = marks.next_if(|m| m.offset <= upto as u64) {
            step(JournalStep::Mark(m.table_len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misra_gries::MisraGries;

    /// Every step of a replay of `upto` keys, rendered.
    fn trace(journal: &PartitionJournal, upto: u64) -> Vec<String> {
        let mut out = Vec::new();
        journal.replay(upto, |step| {
            out.push(match step {
                JournalStep::Key(k) => format!("key:{k}"),
                JournalStep::Mark(t) => format!("mark:{t}"),
            })
        });
        out
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference outputs for state 0 (Steele et al. / JDK
        // SplittableRandom, Vigna's xoshiro seeding generator).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GOLDEN), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn journal_replay_honours_a_prefix() {
        let mut journal = PartitionJournal::new(9, 0);
        journal.extend(&(0..100).collect::<Vec<u64>>());
        assert_eq!(trace(&journal, 40).len(), 40);
        assert_eq!(trace(&journal, 40)[39], "key:39");
        // Replaying past the end clamps to the journal length.
        assert_eq!(trace(&journal, 10_000).len(), 100);
    }

    #[test]
    fn marks_interleave_at_their_offsets() {
        let mut journal = PartitionJournal::new(0, 0);
        journal.extend(&[10, 11]);
        journal.mark(1);
        journal.extend(&[12]);
        journal.mark(2);
        journal.mark(2); // duplicate collapses
        assert_eq!(
            trace(&journal, journal.len()),
            vec!["key:10", "key:11", "mark:1", "key:12", "mark:2"]
        );
        // A prefix replay drops marks past the boundary.
        assert_eq!(trace(&journal, 2), vec!["key:10", "key:11", "mark:1"]);
    }

    #[test]
    fn misra_gries_replay_finds_the_heavy_hitter() {
        let mut journal = PartitionJournal::new(1, 2);
        // Vertex 7 is an endpoint of every edge.
        let keys: Vec<u64> = (0..200).map(|i| 7u64 << 32 | (100 + i)).collect();
        journal.extend(&keys);
        // Offer the endpoint stream the way the router does: first, then
        // second endpoint of each packed key.
        let mut mg = MisraGries::new(4);
        journal.replay(journal.len(), |step| {
            if let JournalStep::Key(key) = step {
                mg.offer((key >> 32) as u32);
                mg.offer(key as u32);
            }
        });
        assert!(mg.entries().any(|(v, _)| v == 7), "heavy hitter resurfaces");
    }

    #[test]
    fn journal_serde_round_trips() {
        let mut journal = PartitionJournal::new(5, 6);
        journal.extend(&[1, 2, 3]);
        journal.mark(2);
        let json = serde_json::to_string(&journal).unwrap();
        assert_eq!(
            json,
            r#"{"seed":5,"granule":6,"keys":[1,2,3],"marks":[{"offset":3,"table_len":2}]}"#
        );
        let back: PartitionJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
