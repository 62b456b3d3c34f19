//! The Misra-Gries heavy-hitter summary (§3.5).
//!
//! Each host thread runs one summary over the endpoints of its section of
//! the edge stream. The classic guarantee holds: after processing `n`
//! items with capacity `K`, every item with frequency `> n/K` has an entry
//! (with count underestimated by at most `n/K`). The orchestrator merges
//! per-thread summaries and takes the global top-`t` as remap candidates.

use std::collections::HashMap;

/// Counters [`MisraGries::new`] reserves at most (`1 << 16`).
const PREALLOCATED: usize = 1 << 16;

/// A Misra-Gries summary with at most `K` tracked keys.
#[derive(Clone, Debug)]
pub struct MisraGries {
    capacity: usize,
    counts: HashMap<u32, u64>,
    items_seen: u64,
}

impl MisraGries {
    /// Creates a summary with capacity `k ≥ 1`. Room for at most 65 536
    /// counters is reserved up front; a wider summary
    /// grows its map as items arrive, so an untrusted `k` (a restored
    /// checkpoint) cannot demand memory the stream never fills.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "capacity must be positive");
        MisraGries {
            capacity: k,
            counts: HashMap::with_capacity(k.saturating_add(1).min(PREALLOCATED)),
            items_seen: 0,
        }
    }

    /// Capacity `K`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total items offered so far.
    pub fn items_seen(&self) -> u64 {
        self.items_seen
    }

    /// Offers one item to the summary (§3.5's three-case update).
    pub fn offer(&mut self, item: u32) {
        self.items_seen += 1;
        if let Some(c) = self.counts.get_mut(&item) {
            *c += 1;
        } else if self.counts.len() < self.capacity {
            self.counts.insert(item, 1);
        } else {
            // Decrement everything; drop zeros. Amortized O(1) per offer.
            self.counts.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }

    /// Offers both endpoints of an edge (degree counting).
    pub fn offer_edge(&mut self, u: u32, v: u32) {
        self.offer(u);
        self.offer(v);
    }

    /// Current entries as `(item, estimated_count)` pairs, unordered.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Estimated count for `item` (0 if untracked). Underestimates the
    /// true count by at most `items_seen / capacity`.
    pub fn estimate(&self, item: u32) -> u64 {
        self.counts.get(&item).copied().unwrap_or(0)
    }

    /// Merges another summary into this one (per the standard Misra-Gries
    /// merge: add counts, then reduce back to capacity by subtracting the
    /// (K+1)-th largest count). The merged summary keeps the union
    /// guarantee over the combined stream.
    pub fn merge(&mut self, other: &MisraGries) {
        self.items_seen += other.items_seen;
        for (item, count) in other.entries() {
            *self.counts.entry(item).or_insert(0) += count;
        }
        if self.counts.len() > self.capacity {
            let mut counts: Vec<u64> = self.counts.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let threshold = counts[self.capacity];
            self.counts.retain(|_, c| {
                *c = c.saturating_sub(threshold);
                *c > 0
            });
        }
    }

    /// The `t` heaviest entries, ordered by descending estimated count
    /// (ties broken by id for determinism).
    pub fn top(&self, t: usize) -> Vec<(u32, u64)> {
        let mut entries: Vec<(u32, u64)> = self.entries().collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(t);
        entries
    }

    /// A deterministic dump of the summary's entries, sorted by item id —
    /// suitable for serialization (HashMap iteration order is not stable
    /// across processes, so checkpoints must not persist `entries()` raw).
    pub fn snapshot(&self) -> Vec<(u32, u64)> {
        let mut entries: Vec<(u32, u64)> = self.entries().collect();
        entries.sort_unstable_by_key(|&(item, _)| item);
        entries
    }

    /// Rebuilds a summary from a [`snapshot`](Self::snapshot) plus the
    /// stream position it was taken at. Entries beyond `capacity` or with
    /// zero counts are rejected as corrupt.
    pub fn from_snapshot(
        capacity: usize,
        items_seen: u64,
        entries: &[(u32, u64)],
    ) -> Result<Self, String> {
        if entries.len() > capacity {
            return Err(format!(
                "snapshot holds {} entries but capacity is {capacity}",
                entries.len()
            ));
        }
        // Counters only ever hold offers (decrements remove them), so
        // they add up to at most the items seen.
        let total = entries
            .iter()
            .try_fold(0u64, |sum, &(_, count)| sum.checked_add(count));
        if total.is_none_or(|total| total > items_seen) {
            return Err(format!(
                "snapshot counts add up past the {items_seen} items seen"
            ));
        }
        let mut mg = MisraGries::new(capacity);
        mg.items_seen = items_seen;
        for &(item, count) in entries {
            if count == 0 {
                return Err(format!("snapshot entry for item {item} has a zero count"));
            }
            if mg.counts.insert(item, count).is_some() {
                return Err(format!("snapshot repeats item {item}"));
            }
        }
        Ok(mg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut mg = MisraGries::new(10);
        for _ in 0..5 {
            mg.offer(1);
        }
        mg.offer(2);
        assert_eq!(mg.estimate(1), 5);
        assert_eq!(mg.estimate(2), 1);
        assert_eq!(mg.estimate(3), 0);
    }

    #[test]
    fn guarantee_heavy_items_survive() {
        // Stream: item 7 appears 400 times among 1000 items; K = 5 ⇒
        // threshold n/K = 200 < 400, so 7 must be present.
        let mut mg = MisraGries::new(5);
        let mut stream = Vec::new();
        for i in 0..600u32 {
            stream.push(1000 + i); // distinct light items
        }
        stream.extend(std::iter::repeat_n(7, 400));
        // Interleave deterministically.
        for (i, &x) in stream.iter().enumerate() {
            let _ = i;
            mg.offer(x);
        }
        assert!(mg.estimate(7) > 0, "heavy item evicted");
        // Underestimate bound: true 400, error ≤ n/K = 200.
        assert!(mg.estimate(7) >= 400 - 200);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut mg = MisraGries::new(3);
        for i in 0..1000u32 {
            mg.offer(i % 17);
            assert!(mg.entries().count() <= 3);
        }
    }

    #[test]
    fn merge_preserves_heavy_hitter() {
        // Two shards, item 9 heavy in both.
        let mut a = MisraGries::new(4);
        let mut b = MisraGries::new(4);
        for i in 0..300u32 {
            a.offer(if i % 2 == 0 { 9 } else { 100 + i });
            b.offer(if i % 3 == 0 { 9 } else { 500 + i });
        }
        a.merge(&b);
        assert!(a.entries().count() <= 4);
        assert!(a.estimate(9) > 0);
        assert_eq!(a.items_seen(), 600);
    }

    #[test]
    fn top_orders_by_count_then_id() {
        let mut mg = MisraGries::new(10);
        for _ in 0..5 {
            mg.offer(2);
            mg.offer(8);
        }
        for _ in 0..9 {
            mg.offer(1);
        }
        let top = mg.top(2);
        assert_eq!(top[0], (1, 9));
        assert_eq!(top[1], (2, 5)); // ties with 8 broken by smaller id
    }

    #[test]
    fn offer_edge_counts_both_endpoints() {
        let mut mg = MisraGries::new(4);
        mg.offer_edge(1, 2);
        mg.offer_edge(1, 3);
        assert_eq!(mg.estimate(1), 2);
        assert_eq!(mg.items_seen(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        MisraGries::new(0);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut mg = MisraGries::new(4);
        for i in 0..500u32 {
            mg.offer(i % 9);
        }
        let snap = mg.snapshot();
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
        let back = MisraGries::from_snapshot(mg.capacity(), mg.items_seen(), &snap).unwrap();
        assert_eq!(back.items_seen(), mg.items_seen());
        assert_eq!(back.snapshot(), snap);
        for i in 0..9 {
            assert_eq!(back.estimate(i), mg.estimate(i));
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        assert!(MisraGries::from_snapshot(1, 3, &[(1, 1), (2, 2)])
            .unwrap_err()
            .contains("capacity"));
        assert!(MisraGries::from_snapshot(4, 3, &[(1, 0)])
            .unwrap_err()
            .contains("zero count"));
        assert!(MisraGries::from_snapshot(4, 3, &[(1, 1), (1, 2)])
            .unwrap_err()
            .contains("repeats"));
    }
}
