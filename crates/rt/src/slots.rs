//! Dense atomic counter storage: the concurrent dual of the profiler's
//! slot-indexed `Vec<Cell<u64>>`.
//!
//! An [`AtomicSlotArray`] maps a dense `u32` slot to an `AtomicU64`
//! counter. The hot path — [`AtomicSlotArray::add`] on an existing slot —
//! is a relaxed saturating fetch-add with **no lock and no hashing**.
//! Where a slot has exactly one writer thread (a [`crate::Profiler`]
//! lane), [`AtomicSlotArray::add_single_writer`] drops the read-modify-
//! write too: a plain load and store.
//!
//! Storage grows lock-free: slots live in power-of-two segments (1024,
//! 2048, 4096, …) that are allocated on first touch through a
//! `OnceLock`, so a slot's address never moves once allocated — writers
//! racing on a fresh segment coordinate only on the one-time
//! initialization. [`AtomicSlotArray::take`] swaps a counter to zero,
//! giving epoch aggregation its "every hit lands in exactly one drain"
//! guarantee per slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// log2 of the first segment's length.
const FIRST_SEGMENT_BITS: u32 = 10;
/// Segment k holds 2^(10+k) slots (1024, 2048, 4096, …); 23 segments
/// cover every possible `u32` slot.
const NUM_SEGMENTS: usize = 23;

/// Locates `slot`: (segment index, offset within it, segment length).
#[inline]
fn locate(slot: u32) -> (usize, usize, usize) {
    let idx = slot as u64 + (1 << FIRST_SEGMENT_BITS);
    let log = 63 - idx.leading_zeros();
    let seg_len = 1u64 << log;
    (
        (log - FIRST_SEGMENT_BITS) as usize,
        (idx - seg_len) as usize,
        seg_len as usize,
    )
}

fn saturating_fetch_add(counter: &AtomicU64, n: u64) {
    // Plain fetch_add would wrap at u64::MAX; a compare-exchange loop lets
    // us saturate instead. Uncontended it costs the same one RMW.
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A growable `slot -> AtomicU64` array with lock-free bumps. See the
/// module docs.
#[derive(Debug, Default)]
pub struct AtomicSlotArray {
    segments: [OnceLock<Box<[AtomicU64]>>; NUM_SEGMENTS],
}

impl AtomicSlotArray {
    /// Creates an array with no segments allocated.
    pub fn new() -> AtomicSlotArray {
        AtomicSlotArray::default()
    }

    #[inline]
    fn counter(&self, slot: u32) -> &AtomicU64 {
        let (seg, off, len) = locate(slot);
        let segment = self.segments[seg]
            .get_or_init(|| (0..len).map(|_| AtomicU64::new(0)).collect());
        &segment[off]
    }

    /// Adds `n` to `slot`'s counter with relaxed ordering, saturating at
    /// `u64::MAX`.
    #[inline]
    pub fn add(&self, slot: u32, n: u64) {
        saturating_fetch_add(self.counter(slot), n);
    }

    /// Adds `n` to `slot`'s counter, saturating at `u64::MAX`, with a
    /// plain load and a release store instead of a read-modify-write.
    ///
    /// Exact only while the calling thread is the slot's **sole writer**:
    /// a concurrent [`add`](Self::add), `add_single_writer` or
    /// [`take`](Self::take) on the same slot may be overwritten. Readers
    /// on other threads may call [`get`](Self::get) at any time.
    #[inline]
    pub(crate) fn add_single_writer(&self, slot: u32, n: u64) {
        let counter = self.counter(slot);
        counter.store(
            counter.load(Ordering::Relaxed).saturating_add(n),
            Ordering::Release,
        );
    }

    /// Overwrites `slot`'s counter with `n`.
    pub(crate) fn set(&self, slot: u32, n: u64) {
        self.counter(slot).store(n, Ordering::Release);
    }

    /// Current count of `slot` (0 if never touched).
    pub fn get(&self, slot: u32) -> u64 {
        let (seg, off, _) = locate(slot);
        match self.segments[seg].get() {
            Some(segment) => segment[off].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Atomically moves `slot`'s count out, leaving zero. Each concurrent
    /// hit lands either in this take or a later one, never both — the
    /// per-slot drain guarantee epoch aggregation builds on.
    pub fn take(&self, slot: u32) -> u64 {
        let (seg, off, _) = locate(slot);
        match self.segments[seg].get() {
            Some(segment) => segment[off].swap(0, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Zeroes every allocated counter (segments stay allocated, so slot
    /// addresses — and anything caching them — remain valid).
    pub fn clear(&self) {
        for seg in &self.segments {
            if let Some(segment) = seg.get() {
                for c in segment.iter() {
                    c.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_covers_segment_boundaries() {
        assert_eq!(locate(0), (0, 0, 1024));
        assert_eq!(locate(1023), (0, 1023, 1024));
        assert_eq!(locate(1024), (1, 0, 2048));
        assert_eq!(locate(3071), (1, 2047, 2048));
        assert_eq!(locate(3072), (2, 0, 4096));
        assert_eq!(locate(u32::MAX), (22, 1023, 1 << 32));
    }

    #[test]
    fn add_get_take() {
        let a = AtomicSlotArray::new();
        a.add(0, 2);
        a.add(5000, 7);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(5000), 7);
        assert_eq!(a.get(3), 0);
        assert_eq!(a.take(5000), 7);
        assert_eq!(a.get(5000), 0);
        assert_eq!(a.take(5000), 0);
    }

    #[test]
    fn saturates_at_max() {
        let a = AtomicSlotArray::new();
        a.add(1, u64::MAX - 1);
        a.add(1, 5);
        assert_eq!(a.get(1), u64::MAX);
    }

    #[test]
    fn single_writer_adds_and_saturates() {
        let a = AtomicSlotArray::new();
        a.add_single_writer(2, 3);
        a.add_single_writer(2, 1);
        assert_eq!(a.get(2), 4);
        a.set(2, u64::MAX - 1);
        a.add_single_writer(2, 5);
        assert_eq!(a.get(2), u64::MAX);
    }

    #[test]
    fn clear_keeps_segments_usable() {
        let a = AtomicSlotArray::new();
        a.add(9, 3);
        a.clear();
        assert_eq!(a.get(9), 0);
        a.add(9, 1);
        assert_eq!(a.get(9), 1);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let a = Arc::new(AtomicSlotArray::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        a.add(((t + i) % 16) as u32, 1);
                    }
                });
            }
        });
        let total: u64 = (0..16).map(|s| a.get(s)).sum();
        assert_eq!(total, threads * per_thread);
    }
}
