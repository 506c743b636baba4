//! The counting side of the proc-macro runtime: [`Profiler`] handles and
//! the per-call-site [`Point`]s that macro-generated code hits.
//!
//! A hit has to stay cheap when many threads count into the same points,
//! so no two threads ever write the same counter:
//!
//! - **Slots.** A profiler interns point names to dense `u32` slots. A
//!   [`Point`] (one `static` per macro call site) resolves its slot once,
//!   on its first counted hit, and caches it.
//! - **Lanes.** Each thread that hits a profiler holds a *lane*: an
//!   [`AtomicSlotArray`] only that thread writes. A counted hit is a plain
//!   load and store on a cache line no other thread writes (see
//!   [`AtomicSlotArray::add_single_writer`]): no hash, no lock, no
//!   read-modify-write. Reads sum every lane, saturating at `u64::MAX`.
//! - **Lanes outlive threads.** When a thread exits, its lane goes back
//!   to the profiler's pool with its counts intact, and the next thread
//!   that needs a lane takes it over. Memory is bounded by the peak number
//!   of threads that have hit at once, and no hit is folded, moved or lost.
//! - **Reset without a second writer.** [`Profiler::reset`] cannot zero a
//!   lane its owner may be writing. It records each lane's counts as a
//!   *baseline* that reads subtract instead. A count read after a reset
//!   never includes a hit issued before the reset began and, once the
//!   writers have finished, includes every hit issued after it returned.
//!   (A lane counter that has saturated stays at its baseline after a
//!   reset; that takes 2^64 hits on one point from one thread.)
//! - **Refcounted enabling.** [`Profiler::enable`] and
//!   [`Profiler::disable`] nest, so overlapping profiling sessions on one
//!   handle compose: one session's `disable` does not stop another's
//!   counting.
//!
//! Cost model: a disabled hit is one relaxed load; an enabled hit adds a
//! thread-local lookup plus a load and a store on a thread-owned line.

use crate::slots::AtomicSlotArray;
use crate::Weights;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// FNV-1a: tiny, allocation-free, and much cheaper than SipHash for the
/// short names profile points have. Not DoS-resistant, which is fine:
/// names come from program source, not attacker input.
#[derive(Clone, Copy, Debug)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf29ce484222325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

/// Interned point names: `name -> slot` and its inverse.
#[derive(Debug)]
struct Names {
    slots: HashMap<Box<str>, u32, BuildHasherDefault<FnvHasher>>,
    names: Vec<Box<str>>,
}

/// One thread's counters for one profiler.
#[derive(Debug, Default)]
struct Lane {
    /// Written only by the thread holding the lane.
    counts: AtomicSlotArray,
    /// `counts` as of the last reset; written only by [`Profiler::reset`].
    baseline: AtomicSlotArray,
    /// Whether a thread holds the lane. Released with `Release` and claimed
    /// with `Acquire`, so a lane's new owner starts from every count its
    /// previous owner stored.
    held: AtomicBool,
}

impl Lane {
    /// Hits on `slot` since the last reset.
    fn count(&self, slot: u32) -> u64 {
        // Baseline first: a baseline newer than the count read makes the
        // difference 0, never a count from before the reset.
        let baseline = self.baseline.get(slot);
        self.counts.get(slot).saturating_sub(baseline)
    }

    fn release(&self) {
        self.held.store(false, Ordering::Release);
    }
}

/// The lanes the current thread holds, keyed by profiler id. Dropped on
/// thread exit, which hands the lanes back to their pools.
struct HeldLanes(RefCell<Vec<(u64, Arc<Lane>)>>);

impl Drop for HeldLanes {
    fn drop(&mut self) {
        for (_, lane) in self.0.get_mut().drain(..) {
            lane.release();
        }
    }
}

thread_local! {
    static HELD: HeldLanes = const { HeldLanes(RefCell::new(Vec::new())) };
}

const LOCK: &str = "profiler lock poisoned";

/// A profiling handle: its enabled state, its name → slot table and its
/// per-thread lanes. See the module docs.
///
/// [`Profiler::global`] is the handle the free functions
/// ([`crate::hit`], [`crate::count`], …) and macro-generated [`Point`]s
/// use; [`Profiler::new`] makes a private one for tests and embedders.
#[derive(Debug)]
pub struct Profiler {
    /// Tells this handle's lanes apart in a thread's [`HELD`] list.
    id: u64,
    /// Outstanding [`Profiler::enable`]s. `Relaxed`: a flag that publishes
    /// no other data.
    enabled: AtomicUsize,
    names: RwLock<Names>,
    lanes: RwLock<Vec<Arc<Lane>>>,
}

static GLOBAL: Profiler = Profiler::with_id(0);

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    const fn with_id(id: u64) -> Profiler {
        Profiler {
            id,
            enabled: AtomicUsize::new(0),
            names: RwLock::new(Names {
                slots: HashMap::with_hasher(BuildHasherDefault::new()),
                names: Vec::new(),
            }),
            lanes: RwLock::new(Vec::new()),
        }
    }

    /// A private handle, disabled, with no points.
    pub fn new() -> Profiler {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Profiler::with_id(NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The process-wide handle.
    #[inline]
    pub fn global() -> &'static Profiler {
        &GLOBAL
    }

    /// Starts counting. Calls nest: counting stays on until every
    /// `enable` has been matched by a [`disable`](Self::disable).
    pub fn enable(&self) {
        self.enabled.fetch_add(1, Ordering::Relaxed);
    }

    /// Ends one [`enable`](Self::enable). A `disable` with no `enable`
    /// outstanding does nothing.
    pub fn disable(&self) {
        let _ = self
            .enabled
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// Whether hits currently count.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }

    /// The dense slot of `point`, interned on first sight.
    pub fn slot(&self, point: &str) -> u32 {
        if let Some(slot) = self.lookup(point) {
            return slot;
        }
        let mut names = self.names.write().expect(LOCK);
        if let Some(&slot) = names.slots.get(point) {
            return slot;
        }
        let slot = u32::try_from(names.names.len())
            .ok()
            .filter(|&s| s != UNRESOLVED)
            .expect("too many profile points");
        names.slots.insert(point.into(), slot);
        names.names.push(point.into());
        slot
    }

    fn lookup(&self, point: &str) -> Option<u32> {
        self.names.read().expect(LOCK).slots.get(point).copied()
    }

    /// Counts one hit on `point` when enabled. Hashes the name on every
    /// call; hot code should resolve a [`slot`](Self::slot) once and use
    /// [`hit_slot`](Self::hit_slot), as [`Point`] does.
    #[inline]
    pub fn hit(&self, point: &str) {
        if self.is_enabled() {
            self.add_slot(self.slot(point), 1);
        }
    }

    /// Counts one hit on `slot` (from [`slot`](Self::slot)) when enabled.
    #[inline]
    pub fn hit_slot(&self, slot: u32) {
        if self.is_enabled() {
            self.add_slot(slot, 1);
        }
    }

    /// Adds `n` to `slot` in the calling thread's lane, claiming a lane
    /// on the thread's first hit.
    #[inline]
    fn add_slot(&self, slot: u32, n: u64) {
        let counted = HELD.try_with(|held| {
            if let Some((_, lane)) = held.0.borrow().iter().find(|(id, _)| *id == self.id) {
                lane.counts.add_single_writer(slot, n);
                return;
            }
            let lane = self.claim_lane();
            lane.counts.add_single_writer(slot, n);
            let mut held = held.0.borrow_mut();
            // The thread's reference is the last one to a lane whose
            // profiler has been dropped.
            held.retain(|(_, lane)| Arc::strong_count(lane) > 1);
            held.push((self.id, lane));
        });
        if counted.is_err() {
            // The thread's lane list is already gone (a hit from another
            // thread-local's destructor): hold a lane for this hit alone.
            let lane = self.claim_lane();
            lane.counts.add_single_writer(slot, n);
            lane.release();
        }
    }

    /// Takes a free lane, or makes one.
    #[cold]
    fn claim_lane(&self) -> Arc<Lane> {
        let free = self.lanes.read().expect(LOCK).iter().find_map(|lane| {
            lane.held
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
                .then(|| lane.clone())
        });
        free.unwrap_or_else(|| {
            let lane = Arc::new(Lane {
                held: AtomicBool::new(true),
                ..Lane::default()
            });
            self.lanes.write().expect(LOCK).push(lane.clone());
            lane
        })
    }

    /// Lanes allocated so far: the peak number of threads that have held
    /// one at once.
    pub fn lane_count(&self) -> usize {
        self.lanes.read().expect(LOCK).len()
    }

    /// Hits on `point` since the last [`reset`](Self::reset), summed over
    /// every lane. Exact once the threads hitting `point` have finished.
    pub fn count(&self, point: &str) -> u64 {
        let Some(slot) = self.lookup(point) else {
            return 0;
        };
        let n = sum(&self.lanes.read().expect(LOCK), slot);
        // Pairs with the writers' release stores, so whatever a writer did
        // before a counted hit is visible after this read.
        fence(Ordering::Acquire);
        n
    }

    /// Zeroes every count (the enabled state and slot assignments are
    /// kept), by recording each lane's counts as its baseline.
    pub fn reset(&self) {
        let slots = self.names.read().expect(LOCK).names.len() as u32;
        for lane in self.lanes.read().expect(LOCK).iter() {
            for slot in 0..slots {
                let n = lane.counts.get(slot);
                if n != 0 {
                    lane.baseline.set(slot, n);
                }
            }
        }
    }

    /// Weights of the points hit since the last reset (points with a zero
    /// count are left out) — what `store-profile` writes.
    pub fn snapshot_weights(&self) -> Weights {
        let names = self.names.read().expect(LOCK);
        let lanes = self.lanes.read().expect(LOCK);
        let counts: HashMap<String, u64> = (0u32..)
            .zip(&names.names)
            .filter_map(|(slot, name)| {
                let n = sum(&lanes, slot);
                (n > 0).then(|| (name.to_string(), n))
            })
            .collect();
        fence(Ordering::Acquire);
        Weights::from_counts(&counts)
    }

    /// Stores [`snapshot_weights`](Self::snapshot_weights) to `path` —
    /// Figure 4's `store-profile`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn store_profile(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.snapshot_weights().store(path)
    }
}

fn sum(lanes: &[Arc<Lane>], slot: u32) -> u64 {
    lanes
        .iter()
        .fold(0, |acc, lane| acc.saturating_add(lane.count(slot)))
}

/// [`Point::slot`] before the first counted hit; never a real slot.
const UNRESOLVED: u32 = u32::MAX;

/// A profile point of the global profiler with a cached slot: what
/// `pgmp-macros` emits, one `static` per call site.
///
/// ```
/// static POINT: pgmp_rt::Point = pgmp_rt::Point::new("parse#0");
/// pgmp_rt::enable_profiling();
/// POINT.hit();
/// pgmp_rt::disable_profiling();
/// assert_eq!(pgmp_rt::count("parse#0"), 1);
/// ```
#[derive(Debug)]
pub struct Point {
    name: &'static str,
    /// Slot in [`Profiler::global`]'s table, [`UNRESOLVED`] until the
    /// first counted hit. `Relaxed`: a hit only indexes its own lane with
    /// the slot, and readers find the name through the locked table.
    slot: AtomicU32,
}

impl Point {
    /// A point named `name`; no slot is resolved until it is hit.
    pub const fn new(name: &'static str) -> Point {
        Point {
            name,
            slot: AtomicU32::new(UNRESOLVED),
        }
    }

    /// Counts one hit on the global profiler when it is enabled.
    #[inline]
    pub fn hit(&self) {
        let profiler = Profiler::global();
        if profiler.is_enabled() {
            profiler.add_slot(self.slot(profiler), 1);
        }
    }

    #[inline]
    fn slot(&self, profiler: &Profiler) -> u32 {
        match self.slot.load(Ordering::Relaxed) {
            UNRESOLVED => self.resolve(profiler),
            slot => slot,
        }
    }

    #[cold]
    fn resolve(&self, profiler: &Profiler) -> u32 {
        let slot = profiler.slot(self.name);
        self.slot.store(slot, Ordering::Relaxed);
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn hit_counts_only_when_enabled() {
        let p = Profiler::new();
        p.hit("disabled");
        assert_eq!(p.count("disabled"), 0);
        p.enable();
        p.hit("enabled");
        p.hit("enabled");
        p.disable();
        p.hit("enabled");
        assert_eq!(p.count("enabled"), 2);
        assert_eq!(p.count("never"), 0);
    }

    #[test]
    fn enabling_nests() {
        let p = Profiler::new();
        p.disable(); // unmatched: no effect
        p.enable();
        p.enable();
        p.disable();
        assert!(p.is_enabled(), "one session still open");
        p.hit("x");
        p.disable();
        assert!(!p.is_enabled());
        p.hit("x");
        assert_eq!(p.count("x"), 1);
    }

    #[test]
    fn private_profilers_are_independent() {
        let (a, b) = (Profiler::new(), Profiler::new());
        a.enable();
        b.enable();
        a.hit("p");
        a.hit("p");
        b.hit("p");
        assert_eq!((a.count("p"), b.count("p")), (2, 1));
        drop(a);
        // The dropped profiler's lane is pruned from this thread's list
        // when the thread next claims a lane.
        Profiler::new().enable();
        let c = Profiler::new();
        c.enable();
        c.hit("p");
        HELD.with(|held| {
            assert!(held
                .0
                .borrow()
                .iter()
                .all(|(_, l)| Arc::strong_count(l) > 1));
        });
        assert_eq!(b.count("p"), 1);
    }

    #[test]
    fn exited_threads_hand_their_lanes_on() {
        let p = Arc::new(Profiler::new());
        p.enable();
        // A joined thread has run its thread-local destructors, so each
        // thread finds the lane its predecessor released.
        for _ in 0..10 {
            let p = p.clone();
            std::thread::spawn(move || p.hit("x")).join().unwrap();
        }
        assert_eq!(p.count("x"), 10, "counts survive the hand-over");
        assert_eq!(p.lane_count(), 1, "ten threads in turn share one lane");
    }

    #[test]
    fn hits_from_late_thread_local_destructors_still_count() {
        struct HitOnDrop(Arc<Profiler>);
        impl Drop for HitOnDrop {
            fn drop(&mut self) {
                self.0.hit("late");
            }
        }
        thread_local! {
            static LATE: RefCell<Option<HitOnDrop>> = const { RefCell::new(None) };
        }
        let p = Arc::new(Profiler::new());
        p.enable();
        let q = p.clone();
        std::thread::spawn(move || {
            // Registered before the lane list, so (where destructors run in
            // reverse order) dropped after it: its hit finds no lane list.
            LATE.with(|late| *late.borrow_mut() = Some(HitOnDrop(q.clone())));
            q.hit("late");
        })
        .join()
        .unwrap();
        assert_eq!(p.count("late"), 2);
        assert_eq!(p.lane_count(), 1, "the late hit reused the released lane");
    }

    #[test]
    fn counts_saturate_per_lane_and_in_the_sum() {
        let p = Profiler::new();
        p.enable();
        let slot = p.slot("hot");
        p.add_slot(slot, u64::MAX - 1);
        p.hit("hot");
        assert_eq!(p.count("hot"), u64::MAX);
        p.hit("hot");
        assert_eq!(p.count("hot"), u64::MAX, "a lane saturates, never wraps");
        let q = Profiler::new();
        q.enable();
        let slot = q.slot("hot");
        q.add_slot(slot, u64::MAX - 1);
        std::thread::scope(|s| {
            s.spawn(|| q.add_slot(slot, u64::MAX - 1));
        });
        assert_eq!(q.lane_count(), 2);
        assert_eq!(q.count("hot"), u64::MAX, "the sum over lanes saturates");
        assert_eq!(q.snapshot_weights().weight("hot"), 1.0);
    }

    #[test]
    fn reset_drops_zero_count_points_from_the_snapshot() {
        let p = Profiler::new();
        p.enable();
        p.hit("a");
        p.hit("b");
        p.reset();
        p.hit("b");
        let w = p.snapshot_weights();
        assert_eq!(
            w,
            Weights::from_counts(&HashMap::from([("b".to_owned(), 1)]))
        );
        assert_eq!((p.count("a"), p.count("b")), (0, 1));
    }

    #[test]
    fn reset_under_concurrent_writers_never_resurrects_counts() {
        const WRITERS: usize = 2;
        const HITS: u64 = 200_000;
        const TOTAL: u64 = WRITERS as u64 * HITS;
        let p = Profiler::new();
        p.enable();
        // Each writer bumps `started` before a hit and `done` after it.
        let (started, done) = (AtomicU64::new(0), AtomicU64::new(0));
        let go = Barrier::new(WRITERS + 1);
        let (mut resets, mut last) = (0, (0, 0));
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    go.wait();
                    for _ in 0..HITS {
                        started.fetch_add(1, Ordering::SeqCst);
                        p.hit("w");
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            go.wait();
            while done.load(Ordering::SeqCst) < TOTAL {
                let done_before = done.load(Ordering::SeqCst);
                p.reset();
                let started_after = started.load(Ordering::SeqCst);
                resets += 1;
                for _ in 0..3 {
                    let n = p.count("w");
                    let upper = started.load(Ordering::SeqCst) - done_before;
                    assert!(
                        n <= upper,
                        "read {n} > {upper} hits issued since the reset began"
                    );
                }
                last = (done_before, started_after);
            }
        });
        // After the join: at most the hits issued since the last reset
        // began, at least those issued after it returned.
        let (done_before, started_after) = last;
        let n = p.count("w");
        assert!(n <= TOTAL - done_before, "{n} > {}", TOTAL - done_before);
        assert!(
            n >= TOTAL - started_after,
            "{n} < {}",
            TOTAL - started_after
        );
        assert!(resets > 0);
        p.reset();
        assert_eq!(p.count("w"), 0);
        p.hit("w");
        assert_eq!(p.count("w"), 1);
    }
}
