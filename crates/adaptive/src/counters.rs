//! `ShardedCounters`: the concurrent counterpart of `pgmp_profiler::Counters`.

use pgmp_profiler::{Dataset, SlotMap};
use pgmp_rt::AtomicSlotArray;
use pgmp_syntax::SourceObject;
use std::sync::{Arc, RwLock};

struct Inner {
    /// Point → slot interning. Read-locked on the hot path (a hit on a
    /// known point), write-locked only the first time a point is seen.
    slots: RwLock<SlotMap>,
    /// Dense slot → count storage; bumps are lock-free relaxed atomics.
    counts: AtomicSlotArray,
}

/// A `Send + Sync` live counter registry for concurrent profile collection.
///
/// Where [`pgmp_profiler::Counters`] is the single-threaded registry one
/// engine bumps during an instrumented run, `ShardedCounters` is the shared
/// sink many threads feed at once: worker threads either bump points
/// directly ([`ShardedCounters::increment`]) or run their own instrumented
/// engine and [`absorb`](ShardedCounters::absorb) its dataset, while each
/// adaptive epoch ([`crate::AdaptiveEngine::tick`])
/// [`drain`](ShardedCounters::drain)s the whole registry into an epoch
/// [`Dataset`].
///
/// Internally this is the concurrent twin of the profiler's dense
/// representation: points are interned once into a [`SlotMap`] (read lock
/// on re-resolution, write lock only for a never-seen point) and counts
/// live in a [`pgmp_rt::AtomicSlotArray`], so a hit on a known slot is a
/// single relaxed fetch-add — no lock, no hashing.
///
/// Handles are cheaply cloneable and share state, mirroring the `Counters`
/// API.
///
/// # Example
///
/// ```
/// use pgmp_adaptive::ShardedCounters;
/// use pgmp_syntax::SourceObject;
///
/// let counters = ShardedCounters::new();
/// let p = SourceObject::new("svc.scm", 0, 5);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let c = counters.clone();
///         s.spawn(move || {
///             for _ in 0..1000 {
///                 c.increment(p);
///             }
///         });
///     }
/// });
/// assert_eq!(counters.snapshot().count(p), 4000);
/// ```
#[derive(Clone)]
pub struct ShardedCounters {
    inner: Arc<Inner>,
}

impl Default for ShardedCounters {
    fn default() -> ShardedCounters {
        ShardedCounters::new()
    }
}

impl ShardedCounters {
    /// An empty registry.
    pub fn new() -> ShardedCounters {
        ShardedCounters {
            inner: Arc::new(Inner {
                slots: RwLock::new(SlotMap::new()),
                counts: AtomicSlotArray::new(),
            }),
        }
    }

    fn slots(&self) -> std::sync::RwLockReadGuard<'_, SlotMap> {
        self.inner.slots.read().expect("sharded counters slot map poisoned")
    }

    /// The dense slot for profile point `p`, interning it on first
    /// resolution. Slots are stable for the registry's lifetime (never
    /// recycled, not even by [`ShardedCounters::clear`]), so they can be
    /// cached by workers and embedded in generated code.
    pub fn resolve(&self, p: SourceObject) -> u32 {
        if let Some(slot) = self.slots().get(p) {
            return slot;
        }
        self.inner
            .slots
            .write()
            .expect("sharded counters slot map poisoned")
            .resolve(p)
    }

    /// The slot previously assigned to `p`, if any (never interns).
    pub fn slot(&self, p: SourceObject) -> Option<u32> {
        self.slots().get(p)
    }

    /// Number of slots interned so far (distinct points ever seen).
    pub fn resolved_slots(&self) -> usize {
        self.slots().len()
    }

    /// Adds `n` to the counter of an already-resolved `slot` (saturating).
    /// This is the lock-free hot path: one relaxed atomic RMW.
    #[inline]
    pub fn add_slot(&self, slot: u32, n: u64) {
        self.inner.counts.add(slot, n);
    }

    /// Current count of an already-resolved `slot`.
    pub fn count_slot(&self, slot: u32) -> u64 {
        self.inner.counts.get(slot)
    }

    /// Adds one to the counter for profile point `p` (saturating).
    pub fn increment(&self, p: SourceObject) {
        self.add(p, 1);
    }

    /// Adds `n` to the counter for profile point `p` (saturating).
    pub fn add(&self, p: SourceObject, n: u64) {
        let slot = self.resolve(p);
        self.inner.counts.add(slot, n);
    }

    /// Current count for `p` (0 if never incremented).
    pub fn count(&self, p: SourceObject) -> u64 {
        match self.slots().get(p) {
            Some(slot) => self.inner.counts.get(slot),
            None => 0,
        }
    }

    /// Number of profile points with a nonzero count.
    pub fn len(&self) -> usize {
        let slots = self.slots();
        (0..slots.len() as u32)
            .filter(|&s| self.inner.counts.get(s) > 0)
            .count()
    }

    /// True iff nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes all counters. Slot assignments survive, so slots cached by
    /// workers stay valid.
    pub fn clear(&self) {
        self.inner.counts.clear();
    }

    /// Adds every count of `dataset` — how a worker thread merges the
    /// counters of its own instrumented run into the shared registry.
    pub fn absorb(&self, dataset: &Dataset) {
        for (p, c) in dataset.iter() {
            if c > 0 {
                self.add(p, c);
            }
        }
    }

    /// Copies the current counts into a [`Dataset`], reusing the existing
    /// weight/merge pipeline unchanged. Zero counts are skipped, so this
    /// and a single-threaded [`pgmp_profiler::Counters`] fed the same hits
    /// snapshot identically.
    pub fn snapshot(&self) -> Dataset {
        let slots = self.slots();
        slots
            .points()
            .iter()
            .enumerate()
            .map(|(s, p)| (*p, self.inner.counts.get(s as u32)))
            .filter(|(_, c)| *c > 0)
            .collect()
    }

    /// Moves all counts out into a [`Dataset`], leaving the registry
    /// empty. Concurrent increments land either in this dataset or the
    /// next one, never in both and never nowhere — the epoch-aggregation
    /// guarantee, per slot ([`AtomicSlotArray::take`]).
    pub fn drain(&self) -> Dataset {
        let slots = self.slots();
        slots
            .points()
            .iter()
            .enumerate()
            .map(|(s, p)| (*p, self.inner.counts.take(s as u32)))
            .filter(|(_, c)| *c > 0)
            .collect()
    }
}

impl std::fmt::Debug for ShardedCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCounters")
            .field("points", &self.len())
            .field("slots", &self.resolved_slots())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_profiler::ProfileInformation;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("sc.scm", n, n + 1)
    }

    #[test]
    fn mirrors_counters_api() {
        let c = ShardedCounters::new();
        c.increment(p(0));
        c.increment(p(0));
        c.add(p(1), 3);
        assert_eq!(c.count(p(0)), 2);
        assert_eq!(c.count(p(1)), 3);
        assert_eq!(c.count(p(9)), 0);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let c = ShardedCounters::new();
        let c2 = c.clone();
        c2.increment(p(7));
        assert_eq!(c.count(p(7)), 1);
    }

    #[test]
    fn slots_are_stable_across_clear_and_drain() {
        let c = ShardedCounters::new();
        let s0 = c.resolve(p(0));
        let s1 = c.resolve(p(1));
        assert_ne!(s0, s1);
        c.add_slot(s0, 2);
        c.clear();
        assert_eq!(c.resolve(p(0)), s0, "clear must not recycle slots");
        c.add_slot(s0, 5);
        let _ = c.drain();
        assert_eq!(c.resolve(p(1)), s1, "drain must not recycle slots");
        assert_eq!(c.resolved_slots(), 2);
        c.add_slot(s1, 1);
        assert_eq!(c.count(p(1)), 1);
    }

    #[test]
    fn slot_and_keyed_apis_agree() {
        let c = ShardedCounters::new();
        let s = c.resolve(p(3));
        c.add_slot(s, 4);
        c.increment(p(3));
        assert_eq!(c.count(p(3)), 5);
        assert_eq!(c.count_slot(s), 5);
        assert_eq!(c.slot(p(3)), Some(s));
        assert_eq!(c.slot(p(4)), None);
    }

    #[test]
    fn snapshot_feeds_existing_weight_pipeline() {
        let c = ShardedCounters::new();
        c.add(p(0), 5);
        c.add(p(1), 10);
        let w = ProfileInformation::from_dataset(&c.snapshot());
        assert_eq!(w.weight(p(0)), 0.5);
        assert_eq!(w.weight(p(1)), 1.0);
    }

    #[test]
    fn drain_is_destructive_and_complete() {
        let c = ShardedCounters::new();
        c.add(p(0), 4);
        let d = c.drain();
        assert_eq!(d.count(p(0)), 4);
        assert!(c.is_empty());
        assert!(c.drain().is_empty());
    }

    #[test]
    fn absorb_merges_a_dataset() {
        let c = ShardedCounters::new();
        let d: Dataset = [(p(0), 2), (p(1), 0), (p(2), 7)].into_iter().collect();
        c.absorb(&d);
        c.absorb(&d);
        assert_eq!(c.count(p(0)), 4);
        assert_eq!(c.count(p(2)), 14);
        // Zero-count entries are not materialized.
        assert_eq!(c.count(p(1)), 0);
        assert_eq!(c.len(), 2);
    }
}
