//! Reusable search state for the graph searches.
//!
//! Every SSRQ query runs at least one graph expansion (Dijkstra, A*, or the
//! shared forward search of the AIS distance module).  Allocating the dense
//! per-vertex arrays per query costs `O(|V|)` work and memory traffic
//! *before the search settles a single vertex* — on large graphs that
//! dwarfs the work of a selective algorithm like AIS, whose whole point is
//! to touch a small neighbourhood.
//!
//! [`SearchScratch`] fixes this with epoch versioning: the per-vertex slots
//! are allocated once (per worker) and "cleared" by bumping a generation
//! counter.  An entry is valid only when its stored stamp matches the
//! current epoch, so [`SearchScratch::begin`] is `O(1)` (amortized — the
//! slots still grow when a larger graph is seen, and the epoch counter
//! wrap-around forces a full refresh every `2^31` searches).
//!
//! Each slot holds the labels of two search directions side by side: the
//! forward search from the query vertex, and the reverse search from the
//! current target of a bidirectional point-to-point computation
//! ([`IncrementalDijkstra::distance_within`](crate::IncrementalDijkstra::distance_within)).
//! The two directions have independent epochs, so a new reverse search
//! starts in `O(1)` without disturbing the persistent forward one, and the
//! meeting test reads both labels from one cache line.

use crate::dijkstra::HeapItem;
use crate::{Distance, NodeId};
use std::collections::BinaryHeap;

/// Index of the forward (source-rooted) direction in a [`SearchScratch`].
pub(crate) const FORWARD: usize = 0;
/// Index of the reverse (target-rooted) direction in a [`SearchScratch`].
pub(crate) const REVERSE: usize = 1;

/// Per-vertex state of both search directions: 24 bytes.
///
/// `stamp[d]` is `epoch[d]` when direction `d` has a tentative label for the
/// vertex and `epoch[d] + 1` once that label is settled (epochs are even);
/// any other value means "untouched in the current search".
#[derive(Debug, Clone, Copy)]
struct Slot {
    dist: [Distance; 2],
    stamp: [u32; 2],
}

const EMPTY_SLOT: Slot = Slot {
    dist: [f64::INFINITY; 2],
    stamp: [0; 2],
};

/// Reusable storage for graph searches: tentative distances and settled
/// marks for a forward and a reverse direction, plus one priority queue per
/// direction.
///
/// Create one per worker (typically inside a per-query context bundle) and
/// pass it to [`IncrementalDijkstra::new`](crate::IncrementalDijkstra::new) or
/// [`AStar::new`](crate::astar::AStar::new); each search calls
/// [`SearchScratch::begin`] itself, so the same scratch can back any number
/// of consecutive searches without reallocating.
///
/// A scratch is exclusively borrowed by the search using it, so stale state
/// can never leak between two searches — the epoch check makes entries from
/// previous searches invisible.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Current generation of each direction (even; entries are valid iff
    /// their stamp is the epoch or the epoch plus one).
    epoch: [u32; 2],
    slots: Vec<Slot>,
    /// Priority queue storage of each direction, shared across searches.
    pub(crate) heaps: [BinaryHeap<HeapItem>; 2],
    /// Number of searches that have used this scratch (diagnostics).
    resets: u64,
}

impl SearchScratch {
    /// An empty scratch; slots grow on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut scratch = SearchScratch::new();
        scratch.grow(n);
        scratch
    }

    /// Number of vertices the slots currently cover.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// How many searches have reused this scratch so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Starts a new search over a graph of `n` vertices: invalidates every
    /// entry of both directions (O(1) via the epoch bumps) and empties both
    /// heaps.
    pub fn begin(&mut self, n: usize) {
        self.grow(n);
        self.resets += 1;
        self.restart(FORWARD);
        self.restart(REVERSE);
    }

    /// Invalidates the labels of the reverse direction only and empties its
    /// heap, leaving the forward search intact.
    pub(crate) fn begin_reverse(&mut self) {
        self.restart(REVERSE);
    }

    fn restart(&mut self, dir: usize) {
        self.heaps[dir].clear();
        if self.epoch[dir] >= u32::MAX - 3 {
            // Wrap-around: restart the generation sequence.  The new epoch
            // must not collide with old stamps, so force-refresh them.
            for slot in &mut self.slots {
                slot.stamp[dir] = 0;
            }
            self.epoch[dir] = 2;
        } else {
            self.epoch[dir] += 2;
        }
    }

    fn grow(&mut self, n: usize) {
        if n > self.slots.len() {
            self.slots.resize(n, EMPTY_SLOT);
        }
    }

    /// Tentative distance of `v` in direction `dir` of the current search
    /// (`INFINITY` when that direction has not touched `v`).
    #[inline]
    pub(crate) fn tentative(&self, dir: usize, v: NodeId) -> Distance {
        let slot = &self.slots[v as usize];
        if slot.stamp[dir] | 1 == self.epoch[dir] | 1 {
            slot.dist[dir]
        } else {
            f64::INFINITY
        }
    }

    /// Offers `d` as a tentative distance of `v` in direction `dir`.
    /// Returns `true` (and records it) when `d` improves on `v`'s current
    /// label.
    ///
    /// Callers settle vertices in non-decreasing key order and offer only
    /// the key of a settled vertex plus a positive weight, so `d` never
    /// improves a settled label; the comparison is kept branch-free, which
    /// measured faster than testing the settled mark first.
    #[inline]
    pub(crate) fn relax(&mut self, dir: usize, v: NodeId, d: Distance) -> bool {
        let epoch = self.epoch[dir];
        let slot = &mut self.slots[v as usize];
        let current = if slot.stamp[dir] | 1 == epoch | 1 {
            slot.dist[dir]
        } else {
            f64::INFINITY
        };
        if d < current {
            debug_assert_ne!(slot.stamp[dir], epoch + 1, "improved a settled label");
            slot.dist[dir] = d;
            slot.stamp[dir] = epoch;
            true
        } else {
            false
        }
    }

    /// Whether `v` has been settled in direction `dir` of the current search.
    #[inline]
    pub(crate) fn is_settled(&self, dir: usize, v: NodeId) -> bool {
        self.slots[v as usize].stamp[dir] == self.epoch[dir] + 1
    }

    /// Marks `v` (which must carry a label in direction `dir`) as settled.
    #[inline]
    pub(crate) fn mark_settled(&mut self, dir: usize, v: NodeId) {
        self.slots[v as usize].stamp[dir] = self.epoch[dir] + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn begin_invalidates_previous_entries_without_reallocating() {
        let mut s = SearchScratch::with_capacity(8);
        s.begin(8);
        assert!(s.relax(FORWARD, 3, 1.5));
        s.mark_settled(FORWARD, 3);
        assert_eq!(s.tentative(FORWARD, 3), 1.5);
        assert!(s.is_settled(FORWARD, 3));

        s.begin(8);
        assert!(
            s.tentative(FORWARD, 3).is_infinite(),
            "stale distance leaked"
        );
        assert!(!s.is_settled(FORWARD, 3), "stale settled mark leaked");
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.resets(), 2);
    }

    #[test]
    fn relax_keeps_the_minimum_label() {
        let mut s = SearchScratch::with_capacity(4);
        s.begin(4);
        assert!(s.relax(FORWARD, 1, 2.0));
        assert!(!s.relax(FORWARD, 1, 3.0));
        assert!(s.relax(FORWARD, 1, 1.0));
        s.mark_settled(FORWARD, 1);
        assert!(!s.relax(FORWARD, 1, 1.5));
        assert!(s.is_settled(FORWARD, 1));
        assert_eq!(s.tentative(FORWARD, 1), 1.0);
    }

    #[test]
    fn reverse_restart_leaves_the_forward_labels_alone() {
        let mut s = SearchScratch::with_capacity(4);
        s.begin(4);
        s.relax(FORWARD, 2, 0.5);
        s.mark_settled(FORWARD, 2);
        s.relax(REVERSE, 2, 0.25);
        s.mark_settled(REVERSE, 2);
        s.begin_reverse();
        assert!(s.is_settled(FORWARD, 2));
        assert_eq!(s.tentative(FORWARD, 2), 0.5);
        assert!(!s.is_settled(REVERSE, 2));
        assert!(s.tentative(REVERSE, 2).is_infinite());
    }

    #[test]
    fn scratch_grows_to_the_largest_graph_seen() {
        let mut s = SearchScratch::new();
        assert_eq!(s.capacity(), 0);
        s.begin(4);
        assert_eq!(s.capacity(), 4);
        s.begin(2);
        assert_eq!(s.capacity(), 4, "capacity must not shrink");
        s.begin(100);
        assert_eq!(s.capacity(), 100);
        assert!(s.tentative(FORWARD, 99).is_infinite());
    }

    #[test]
    fn epoch_wraparound_refreshes_cleanly() {
        let mut s = SearchScratch::with_capacity(4);
        s.epoch = [u32::MAX - 5; 2];
        s.begin(4); // -> MAX - 3
        s.relax(FORWARD, 1, 0.5);
        s.mark_settled(FORWARD, 1);
        s.begin(4); // wraps to 2
        assert!(s.tentative(FORWARD, 1).is_infinite());
        assert!(!s.is_settled(FORWARD, 1));
        s.relax(FORWARD, 2, 0.25);
        assert_eq!(s.tentative(FORWARD, 2), 0.25);
    }
}
