//! Per-region-shard event queues with a lazy tournament head.
//!
//! The engine's event core orders every pending event — dropoffs and
//! rider deadlines — by a globally unique key `(time, priority, id)`.
//! One global `BinaryHeap` over a city-scale day is the last
//! `O(log total_events)`-per-op shared structure left in the hot loop;
//! [`ShardedEventQueue`] partitions it into per-region-band shards
//! (dropoffs land in the shard of their dropoff region, deadlines in the
//! shard of their pickup region) with a small *tournament heap* over the
//! shard heads deciding the global order.
//!
//! Because event keys are globally unique — a driver has at most one
//! outstanding dropoff and a rider exactly one deadline — the minimum
//! over shard minima *is* the global minimum, and the tournament
//! reproduces the single-queue pop order **exactly**: results are
//! bit-identical for any shard count, which the engine-equivalence
//! batteries pin. Cross-shard handoff (an assignment formed in one
//! region pushing a dropoff event into another region's shard) happens
//! only at batch timestamps, where dispatch is already a barrier.
//!
//! The tournament head is *lazily* maintained: pushes add a head entry
//! only when the new key becomes its shard's minimum, and stale head
//! entries (whose key no longer heads its shard) are discarded on the
//! next peek. Each shard heap stays small and cache-warm, so per-op
//! cost is `O(log shard_events + log shards)` instead of
//! `O(log total_events)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::types::Millis;

/// An event key: `(time, priority, payload id)` — the engine's total
/// event order. Keys are globally unique within one simulation run.
pub type EventKey = (Millis, u8, u32);

/// A sharded min-queue over [`EventKey`]s (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ShardedEventQueue {
    shards: Vec<BinaryHeap<Reverse<EventKey>>>,
    /// Tournament heap of `(time, priority, id, shard)` shard-head
    /// candidates, lazily invalidated (see module docs).
    head: BinaryHeap<Reverse<(Millis, u8, u32, u32)>>,
    len: usize,
}

impl ShardedEventQueue {
    /// An empty queue with `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "ShardedEventQueue: need at least one shard");
        assert!(
            shards <= u32::MAX as usize,
            "ShardedEventQueue: shard count overflows u32"
        );
        Self {
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            head: BinaryHeap::new(),
            len: 0,
        }
    }

    /// The default shard count for a grid with `num_regions` regions:
    /// one shard per band of ~64 regions, clamped to `[1, 1024]` (the
    /// paper's 16×16 world gets 4 shards; a 200×200 city gets 625).
    pub fn auto_shard_count(num_regions: usize) -> usize {
        (num_regions / 64).clamp(1, 1024)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `key` on `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn push(&mut self, key: EventKey, shard: usize) {
        let s = &mut self.shards[shard];
        s.push(Reverse(key));
        if s.peek() == Some(&Reverse(key)) {
            self.head.push(Reverse((key.0, key.1, key.2, shard as u32)));
        }
        self.len += 1;
    }

    /// The globally smallest queued key, discarding stale tournament
    /// entries on the way (hence `&mut`).
    pub fn peek(&mut self) -> Option<EventKey> {
        while let Some(&Reverse((t, pri, id, s))) = self.head.peek() {
            if self.shards[s as usize].peek() == Some(&Reverse((t, pri, id))) {
                return Some((t, pri, id));
            }
            // The key no longer heads its shard (already popped, or
            // superseded by a duplicate head entry): drop and retry.
            self.head.pop();
        }
        debug_assert_eq!(self.len, 0, "live events but an empty tournament");
        None
    }

    /// Removes and returns the globally smallest queued key.
    pub fn pop(&mut self) -> Option<EventKey> {
        let key = self.peek()?;
        // `peek` left a validated entry on top of the tournament.
        let Some(Reverse((_, _, _, s))) = self.head.pop() else {
            unreachable!("peek returned a key but the tournament is empty");
        };
        let shard = &mut self.shards[s as usize];
        let popped = shard.pop();
        debug_assert_eq!(popped, Some(Reverse(key)));
        if let Some(&Reverse((t, pri, id))) = shard.peek() {
            self.head.push(Reverse((t, pri, id, s)));
        }
        self.len -= 1;
        Some(key)
    }
}

/// The engine's event queue: the single global heap (the pre-shard
/// reference path, `event_shards = 1`) or the sharded queue. Both expose
/// the same push/peek/pop surface and produce the same pop order.
#[derive(Debug)]
pub(crate) enum EventQueue {
    /// One global min-heap — the reference layout.
    Single(BinaryHeap<Reverse<EventKey>>),
    /// Per-region-band shards with a tournament head.
    Sharded(ShardedEventQueue),
}

impl EventQueue {
    /// A queue with `shards` shards (`<= 1` selects the single heap).
    pub fn new(shards: usize) -> Self {
        if shards <= 1 {
            EventQueue::Single(BinaryHeap::new())
        } else {
            EventQueue::Sharded(ShardedEventQueue::new(shards))
        }
    }

    /// Queues `key`; `shard` is ignored by the single-heap layout.
    pub fn push(&mut self, key: EventKey, shard: usize) {
        match self {
            EventQueue::Single(h) => h.push(Reverse(key)),
            EventQueue::Sharded(q) => q.push(key, shard),
        }
    }

    /// The smallest queued key.
    pub fn peek(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Single(h) => h.peek().map(|&Reverse(k)| k),
            EventQueue::Sharded(q) => q.peek(),
        }
    }

    /// Removes and returns the smallest queued key.
    pub fn pop(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Single(h) => h.pop().map(|Reverse(k)| k),
            EventQueue::Sharded(q) => q.pop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn empty_queue_peeks_and_pops_none() {
        let mut q = ShardedEventQueue::new(4);
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.num_shards(), 4);
    }

    #[test]
    fn pops_in_global_key_order_across_shards() {
        let mut q = ShardedEventQueue::new(3);
        q.push((50, 0, 1), 2);
        q.push((10, 2, 7), 0);
        q.push((10, 0, 3), 1);
        q.push((30, 1, 2), 2);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((10, 0, 3)));
        assert_eq!(q.pop(), Some((10, 0, 3)));
        assert_eq!(q.pop(), Some((10, 2, 7)));
        assert_eq!(q.pop(), Some((30, 1, 2)));
        assert_eq!(q.pop(), Some((50, 0, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_pushes_and_pops_keep_order() {
        let mut q = ShardedEventQueue::new(2);
        q.push((5, 0, 0), 0);
        q.push((1, 0, 1), 1);
        assert_eq!(q.pop(), Some((1, 0, 1)));
        // A later push below the current shard-0 head must win the
        // tournament immediately.
        q.push((2, 0, 2), 0);
        assert_eq!(q.pop(), Some((2, 0, 2)));
        q.push((3, 0, 3), 1);
        assert_eq!(q.pop(), Some((3, 0, 3)));
        assert_eq!(q.pop(), Some((5, 0, 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn auto_shard_count_bands_regions() {
        assert_eq!(ShardedEventQueue::auto_shard_count(1), 1);
        assert_eq!(ShardedEventQueue::auto_shard_count(256), 4);
        assert_eq!(ShardedEventQueue::auto_shard_count(64 * 64), 64);
        assert_eq!(ShardedEventQueue::auto_shard_count(200 * 200), 625);
        assert_eq!(ShardedEventQueue::auto_shard_count(10_000_000), 1024);
    }

    proptest! {
        /// The tentpole equivalence: under random interleavings of
        /// unique-key pushes and pops, the sharded queue reproduces a
        /// single global heap's pop order exactly, for any shard count
        /// and shard assignment.
        #[test]
        fn matches_single_heap_pop_order(seed in 0u64..50, shards in 1usize..9, n_ops in 1usize..200) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD);
            let mut sharded = ShardedEventQueue::new(shards);
            let mut single: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
            let mut next_id = 0u32;
            for _ in 0..n_ops {
                if rng.gen_range(0u32..3) < 2 {
                    // Unique ids make keys globally unique even when
                    // times and priorities collide.
                    let key = (rng.gen_range(0u64..40), rng.gen_range(0u8..3), next_id);
                    next_id += 1;
                    single.push(Reverse(key));
                    sharded.push(key, rng.gen_range(0..shards));
                } else {
                    prop_assert_eq!(sharded.peek(), single.peek().map(|&Reverse(k)| k));
                    prop_assert_eq!(sharded.pop(), single.pop().map(|Reverse(k)| k));
                }
                prop_assert_eq!(sharded.len(), single.len());
            }
            // Drain: the tails must agree too.
            while let Some(k) = sharded.pop() {
                prop_assert_eq!(Some(k), single.pop().map(|Reverse(k)| k));
            }
            prop_assert!(single.is_empty());
        }
    }
}
