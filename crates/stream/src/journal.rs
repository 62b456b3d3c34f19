//! Replayable RNG journals for per-partition sampling state.
//!
//! Every sampling decision in this crate is a pure function of an RNG
//! stream and the order in which stream items arrive. A
//! [`GranuleRng`] pins the RNG side: it is a splitmix64 stream addressed
//! by `(seed, granule, counter)` coordinates, so any decision point can
//! be named by three integers and resumed in O(1) — no replaying of
//! earlier draws needed. A [`PartitionJournal`] pins the arrival side:
//! it records, per partition, the routed keys in arrival order plus
//! *marks* noting where a remap table of a given length was applied.
//!
//! Together they make a lost partition's sample set re-derivable with no
//! survivors: replay the journaled key stream through the same decision
//! arithmetic (the caller supplies it — e.g. the DPU receive kernel's
//! reservoir step) and apply the journaled remap marks in order.

use crate::misra_gries::MisraGries;
use crate::reservoir::Reservoir;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The splitmix64 increment (golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 output for input `z` (Steele et al., OOPSLA 2014):
/// the golden-ratio increment, then a full-avalanche 64-bit finalizer,
/// so consecutive inputs give statistically independent outputs. The
/// host router seeds its per-granule samplers with it too.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut x = z.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A granule-keyed splitmix64 stream with O(1) random access.
///
/// Draw `k` of the stream for `(seed, granule)` is
/// `splitmix64(seed + granule·φ + k·φ)` where `φ` is the 64-bit golden
/// ratio — the same decorrelation scheme the host router uses for its
/// per-granule samplers. Because the state is an affine function of the
/// counter, [`GranuleRng::at`] can resume from any journaled coordinate
/// without replaying the draws before it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GranuleRng {
    seed: u64,
    granule: u64,
    counter: u64,
}

impl GranuleRng {
    /// The stream for `(seed, granule)`, positioned at its first draw.
    pub fn new(seed: u64, granule: u64) -> Self {
        GranuleRng {
            seed,
            granule,
            counter: 0,
        }
    }

    /// Resumes the stream at a journaled `(seed, granule, counter)`
    /// coordinate in O(1).
    pub fn at(seed: u64, granule: u64, counter: u64) -> Self {
        GranuleRng {
            seed,
            granule,
            counter,
        }
    }

    /// The `(seed, granule, counter)` coordinate of the *next* draw —
    /// journaling this triple is enough to resume the stream exactly.
    pub fn coords(&self) -> (u64, u64, u64) {
        (self.seed, self.granule, self.counter)
    }

    /// Draws consumed so far.
    pub fn counter(&self) -> u64 {
        self.counter
    }
}

impl RngCore for GranuleRng {
    fn next_u64(&mut self) -> u64 {
        let z = self
            .seed
            .wrapping_add(self.granule.wrapping_mul(GOLDEN))
            .wrapping_add(self.counter.wrapping_mul(GOLDEN));
        self.counter += 1;
        splitmix64(z)
    }
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

/// The decision journal for one partition: every key routed to it, in
/// arrival order, plus the remap marks. Replaying `keys[..upto]` through
/// the partition's decision arithmetic (seeded from the journal's
/// coordinates) reconstructs the partition's exact sample state at the
/// point where `upto` keys had been consumed.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PartitionJournal {
    seed: u64,
    granule: u64,
    keys: Vec<u64>,
    marks: Vec<JournalMark>,
}

impl PartitionJournal {
    /// An empty journal for the stream addressed by `(seed, granule)`.
    pub fn new(seed: u64, granule: u64) -> Self {
        PartitionJournal {
            seed,
            granule,
            keys: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// The `(seed, granule, counter)` coordinate of the journal head.
    pub fn coords(&self) -> (u64, u64, u64) {
        (self.seed, self.granule, self.keys.len() as u64)
    }

    /// Appends one routed key.
    pub fn record(&mut self, key: u64) {
        self.keys.push(key);
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

    /// The routed-key stream in arrival order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The remap marks in order.
    pub fn marks(&self) -> &[JournalMark] {
        &self.marks
    }

    /// Replays the first `upto` journaled keys, interleaving remap marks
    /// at their recorded offsets: `on_mark(table_len)` fires before the
    /// key at the mark's offset is consumed (and after the last key for
    /// marks at the replay boundary). The caller's closures hold the
    /// decision arithmetic; the journal only guarantees the order.
    pub fn replay<K, M>(&self, upto: u64, mut on_key: K, mut on_mark: M)
    where
        K: FnMut(u64),
        M: FnMut(u64),
    {
        let upto = (upto as usize).min(self.keys.len());
        let mut mi = 0;
        for (i, &key) in self.keys[..upto].iter().enumerate() {
            while mi < self.marks.len() && self.marks[mi].offset == i as u64 {
                on_mark(self.marks[mi].table_len);
                mi += 1;
            }
            on_key(key);
        }
        while mi < self.marks.len() && self.marks[mi].offset <= upto as u64 {
            on_mark(self.marks[mi].table_len);
            mi += 1;
        }
    }

    /// Re-derives a reservoir over the journaled key prefix by replaying
    /// it through a fresh [`GranuleRng`] at the journal's origin — the
    /// pure host-side reference for "no survivors needed" recovery.
    pub fn replay_reservoir(&self, capacity: usize, upto: u64) -> Reservoir<u64> {
        let mut rng = GranuleRng::new(self.seed, self.granule);
        let mut res = Reservoir::new(capacity);
        self.replay(
            upto,
            |key| {
                res.offer(key, &mut rng);
            },
            |_| {},
        );
        res
    }

    /// Re-derives a Misra-Gries summary of width `capacity` over the
    /// endpoint stream of the journaled key prefix (first then second
    /// endpoint of each packed key), mirroring how the router offers
    /// edges to its heavy-hitter tracker.
    pub fn replay_misra_gries(&self, capacity: usize, upto: u64) -> MisraGries {
        let mut mg = MisraGries::new(capacity);
        self.replay(
            upto,
            |key| {
                mg.offer((key >> 32) as u32);
                mg.offer(key as u32);
            },
            |_| {},
        );
        mg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference outputs for state 0 (Steele et al. / JDK
        // SplittableRandom, Vigna's xoshiro seeding generator).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GOLDEN), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn granule_rng_random_access_matches_sequential() {
        let mut seq = GranuleRng::new(0xFEED, 7);
        let draws: Vec<u64> = (0..32).map(|_| seq.next_u64()).collect();
        for (k, &want) in draws.iter().enumerate() {
            let mut resumed = GranuleRng::at(0xFEED, 7, k as u64);
            assert_eq!(resumed.next_u64(), want, "draw {k}");
        }
        assert_eq!(seq.coords(), (0xFEED, 7, 32));
    }

    #[test]
    fn granules_decorrelate_streams() {
        let mut a = GranuleRng::new(1, 0);
        let mut b = GranuleRng::new(1, 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn granule_rng_drives_gen_range() {
        let mut rng = GranuleRng::new(3, 3);
        for _ in 0..1000 {
            let x: u64 = rng.gen_range(0..10);
            assert!(x < 10);
        }
        assert!(rng.counter() >= 1000);
    }

    #[test]
    fn journal_replay_reconstructs_a_reservoir_exactly() {
        let mut journal = PartitionJournal::new(42, 5);
        let mut rng = GranuleRng::new(42, 5);
        let mut live = Reservoir::new(16);
        for i in 0..500u64 {
            let key = i << 32 | (i + 1);
            journal.record(key);
            live.offer(key, &mut rng);
        }
        assert!(live.overflowed());
        let replayed = journal.replay_reservoir(16, journal.len());
        assert_eq!(replayed.items(), live.items());
        assert_eq!(replayed.seen(), live.seen());
        assert!(replayed.overflowed());
    }

    #[test]
    fn journal_replay_honours_a_prefix() {
        let mut journal = PartitionJournal::new(9, 0);
        for i in 0..100u64 {
            journal.record(i);
        }
        let replayed = journal.replay_reservoir(8, 40);
        assert_eq!(replayed.seen(), 40);
        // Replaying past the end clamps to the journal length.
        let full = journal.replay_reservoir(8, 10_000);
        assert_eq!(full.seen(), 100);
    }

    #[test]
    fn marks_interleave_at_their_offsets() {
        let mut journal = PartitionJournal::new(0, 0);
        journal.record(10);
        journal.record(11);
        journal.mark(1);
        journal.record(12);
        journal.mark(2);
        journal.mark(2); // duplicate collapses
        let trace = std::cell::RefCell::new(Vec::new());
        journal.replay(
            journal.len(),
            |k| trace.borrow_mut().push(format!("key:{k}")),
            |t| trace.borrow_mut().push(format!("mark:{t}")),
        );
        assert_eq!(
            trace.into_inner(),
            vec!["key:10", "key:11", "mark:1", "key:12", "mark:2"]
        );
        // A prefix replay drops marks past the boundary.
        let short = std::cell::RefCell::new(Vec::new());
        journal.replay(
            2,
            |k| short.borrow_mut().push(format!("key:{k}")),
            |t| short.borrow_mut().push(format!("mark:{t}")),
        );
        assert_eq!(short.into_inner(), vec!["key:10", "key:11", "mark:1"]);
    }

    #[test]
    fn misra_gries_replay_finds_the_heavy_hitter() {
        let mut journal = PartitionJournal::new(1, 2);
        for i in 0..200u64 {
            // Vertex 7 is an endpoint of every edge.
            journal.record(7u64 << 32 | (100 + i));
        }
        let mg = journal.replay_misra_gries(4, journal.len());
        assert!(mg.entries().any(|(v, _)| v == 7), "heavy hitter resurfaces");
    }

    #[test]
    fn journal_serde_round_trips() {
        let mut journal = PartitionJournal::new(5, 6);
        journal.extend(&[1, 2, 3]);
        journal.mark(2);
        let json = serde_json::to_string(&journal).unwrap();
        let back: PartitionJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(back.keys(), journal.keys());
        assert_eq!(back.marks(), journal.marks());
        assert_eq!(back.coords(), journal.coords());
    }
}
