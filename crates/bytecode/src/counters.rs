//! Block-level profile counters.
//!
//! Like the source-level [`pgmp_profiler::Counters`], the registry assigns
//! each registered chunk a contiguous base in one dense index space — the
//! VM resolves the base once per activation and block entry becomes a
//! vector bump. Behind the index space is one of two stores: **exact**
//! counters ([`BlockCounters::new`]), or **sampling**
//! ([`BlockCounters::with_sampling`]), where block entry only publishes a
//! current-position beacon (one relaxed store) and a decoupled
//! [`pgmp_profiler::Sampler`] thread turns periodic beacon reads into
//! estimated counts (see `pgmp_profiler::sampling`).

use pgmp_profiler::{Sampler, SamplingShared};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug)]
struct Registry {
    /// chunk id → (base, block count) in the dense index space.
    bases: RefCell<HashMap<u32, (u32, u32)>>,
    /// Next free dense index.
    next: Cell<u32>,
    store: Store,
}

/// What holds the per-index counts.
#[derive(Debug)]
enum Store {
    /// One exact counter per dense index.
    Exact(RefCell<Vec<Cell<u64>>>),
    Sampling {
        /// Beacon + estimated tallies, shared with the sampler.
        shared: Arc<SamplingShared>,
        /// Owns the sampler thread; `None` in manual (test) mode. Dropping
        /// the last clone of the registry stops and joins the thread.
        sampler: Option<Sampler>,
        /// Configured tick rate (0 in manual mode).
        hz: u32,
    },
}

impl Store {
    fn get(&self, idx: u32) -> u64 {
        match self {
            Store::Exact(counts) => counts.borrow()[idx as usize].get(),
            Store::Sampling { shared, .. } => shared.tallies().get(idx),
        }
    }

    /// Moves the count at `from` onto the count at `to`, saturating.
    fn move_count(&self, from: u32, to: u32) {
        match self {
            Store::Exact(counts) => {
                let counts = counts.borrow();
                let c = counts[from as usize].replace(0);
                let dst = &counts[to as usize];
                dst.set(dst.get().saturating_add(c));
            }
            Store::Sampling { shared, .. } => {
                let c = shared.tallies().take(from);
                if c > 0 {
                    shared.tallies().add(to, c);
                }
            }
        }
    }
}

/// Execution counts per `(chunk, block)` — the block-level analogue of the
/// source-level [`pgmp_profiler::Counters`].
///
/// # Example
///
/// ```
/// use pgmp_bytecode::BlockCounters;
/// let c = BlockCounters::new();
/// c.increment(0, 2);
/// c.increment(0, 2);
/// assert_eq!(c.count(0, 2), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BlockCounters {
    registry: Rc<Registry>,
}

impl Default for BlockCounters {
    fn default() -> BlockCounters {
        BlockCounters::new()
    }
}

impl BlockCounters {
    /// Creates an empty exact registry.
    pub fn new() -> BlockCounters {
        BlockCounters::with_store(Store::Exact(RefCell::new(Vec::new())))
    }

    /// Creates an empty sampling registry with a sampler thread ticking at
    /// `hz`.
    pub fn with_sampling(hz: u32) -> BlockCounters {
        BlockCounters::sampling_with(hz, true)
    }

    /// Creates a sampling registry with *no* sampler thread; tests and
    /// benchmarks drive it deterministically via
    /// [`BlockCounters::sample_now`].
    pub fn sampling_manual() -> BlockCounters {
        BlockCounters::sampling_with(0, false)
    }

    fn sampling_with(hz: u32, spawn: bool) -> BlockCounters {
        let shared = Arc::new(SamplingShared::new());
        let sampler = spawn.then(|| Sampler::spawn(shared.clone(), hz));
        BlockCounters::with_store(Store::Sampling {
            shared,
            sampler,
            hz,
        })
    }

    fn with_store(store: Store) -> BlockCounters {
        BlockCounters {
            registry: Rc::new(Registry {
                bases: RefCell::new(HashMap::new()),
                next: Cell::new(0),
                store,
            }),
        }
    }

    /// The configured sampler rate, when this is a sampling registry
    /// (0 in manual mode; `None` on exact registries).
    pub fn sample_hz(&self) -> Option<u32> {
        match &self.registry.store {
            Store::Sampling { hz, .. } => Some(*hz),
            Store::Exact(_) => None,
        }
    }

    /// True when a wall-clock sampler thread is attached to this registry
    /// (always false for exact registries and manually driven sampling
    /// registries).
    pub fn has_sampler_thread(&self) -> bool {
        matches!(
            &self.registry.store,
            Store::Sampling {
                sampler: Some(_),
                ..
            }
        )
    }

    /// The shared sampling state, when this is a sampling registry.
    pub fn sampling_shared(&self) -> Option<Arc<SamplingShared>> {
        match &self.registry.store {
            Store::Sampling { shared, .. } => Some(shared.clone()),
            Store::Exact(_) => None,
        }
    }

    /// Takes one sample immediately (test/benchmark hook); no-op on exact
    /// registries.
    pub fn sample_now(&self) {
        if let Store::Sampling { shared, .. } = &self.registry.store {
            shared.sample_now();
        }
    }

    /// Parks the sampling beacon so samples taken while no profiled code
    /// runs (VM run exited, blocking native) attribute nothing; no-op on
    /// exact registries.
    #[inline]
    pub fn park(&self) {
        if let Store::Sampling { shared, .. } = &self.registry.store {
            shared.park();
        }
    }

    /// Registers chunk `chunk` with `blocks` basic blocks and returns the
    /// base index of its counter range; idempotent (re-registration with
    /// no more blocks returns the existing base). The VM registers once per
    /// activation, after which each block entry is
    /// [`BlockCounters::increment_at`] — a vector bump, no hashing.
    ///
    /// Registering more blocks than before moves the chunk to a fresh,
    /// larger range and carries its counts over; bases handed out for the
    /// old range must not be used afterwards.
    pub fn register_chunk(&self, chunk: u32, blocks: u32) -> u32 {
        let mut bases = self.registry.bases.borrow_mut();
        let old = bases.get(&chunk).copied();
        if let Some((base, n)) = old {
            if blocks <= n {
                return base;
            }
        }
        let base = self.registry.next.get();
        let end = base + blocks;
        self.registry.next.set(end);
        if let Store::Exact(counts) = &self.registry.store {
            counts.borrow_mut().resize(end as usize, Cell::new(0));
        }
        if let Some((old_base, n)) = old {
            for b in 0..n {
                self.registry.store.move_count(old_base + b, base + b);
            }
        }
        bases.insert(chunk, (base, blocks));
        base
    }

    /// Records entry into the block at `base + block`: a saturating counter
    /// bump on an exact registry, one relaxed beacon store on a sampling
    /// registry. Only valid with a `base` returned by
    /// [`BlockCounters::register_chunk`] on this registry and `block`
    /// within the registered block count.
    ///
    /// # Panics
    ///
    /// Panics (exact registries only) on an out-of-range index.
    #[inline]
    pub fn increment_at(&self, base: u32, block: u32) {
        match &self.registry.store {
            Store::Exact(counts) => {
                let counts = counts.borrow();
                let c = &counts[(base + block) as usize];
                c.set(c.get().saturating_add(1));
            }
            Store::Sampling { shared, .. } => shared.publish(0, base + block),
        }
    }

    /// Records entry into block `block` of chunk `chunk` (keyed path for
    /// tests and tooling). A chunk nobody registered, or a block beyond its
    /// registered range, (re-)registers the chunk large enough first.
    pub fn increment(&self, chunk: u32, block: u32) {
        let base = self.register_chunk(chunk, block + 1);
        self.increment_at(base, block);
    }

    /// Execution count of a block (0 if never executed).
    pub fn count(&self, chunk: u32, block: u32) -> u64 {
        let range = self.registry.bases.borrow().get(&chunk).copied();
        match range {
            Some((base, n)) if block < n => self.registry.store.get(base + block),
            _ => 0,
        }
    }

    /// Number of blocks with a nonzero count (estimated count, on a
    /// sampling registry).
    pub fn len(&self) -> usize {
        (0..self.registry.next.get())
            .filter(|&i| self.registry.store.get(i) > 0)
            .count()
    }

    /// True if no blocks were counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes every counter. Chunk registrations (and therefore
    /// activation-cached bases) stay valid.
    pub fn clear(&self) {
        match &self.registry.store {
            Store::Exact(counts) => {
                for c in counts.borrow().iter() {
                    c.set(0);
                }
            }
            Store::Sampling { shared, .. } => shared.tallies().clear(),
        }
    }

    /// Re-keys every counter of chunk `old` under chunk id `new`,
    /// registration included. Chunk ids are process-local, so block counts
    /// collected against a chunk from a *saved* session must be carried
    /// over to the id the warm-started process minted for the same chunk —
    /// `pgmp::WarmStart::chunk_map` supplies exactly these `(old, new)`
    /// pairs.
    ///
    /// If `new` already has counts of its own, the remapped counts are
    /// added to them (growing `new`'s range if `old` had more blocks). No-op
    /// when `old == new` or `old` was never seen.
    pub fn remap_chunk(&self, old: u32, new: u32) {
        if old == new {
            return;
        }
        let Some((base, n)) = self.registry.bases.borrow_mut().remove(&old) else {
            return;
        };
        if !self.registry.bases.borrow().contains_key(&new) {
            self.registry.bases.borrow_mut().insert(new, (base, n));
            return;
        }
        let new_base = self.register_chunk(new, n);
        for b in 0..n {
            self.registry.store.move_count(base + b, new_base + b);
        }
    }

    /// Snapshot of all nonzero counts.
    pub fn snapshot(&self) -> HashMap<(u32, u32), u64> {
        let mut out = HashMap::new();
        for (chunk, (base, n)) in self.registry.bases.borrow().iter() {
            for b in 0..*n {
                let c = self.registry.store.get(base + b);
                if c > 0 {
                    out.insert((*chunk, b), c);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clones_share_state() {
        let a = BlockCounters::new();
        let b = a.clone();
        b.increment(1, 2);
        assert_eq!(a.count(1, 2), 1);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let a = BlockCounters::new();
        a.increment(0, 0);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.count(0, 0), 0);
    }

    #[test]
    fn registered_chunks_count_densely() {
        let c = BlockCounters::new();
        let base = c.register_chunk(7, 3);
        assert_eq!(c.register_chunk(7, 3), base, "registration is idempotent");
        c.increment_at(base, 0);
        c.increment_at(base, 2);
        c.increment_at(base, 2);
        assert_eq!(c.count(7, 0), 1);
        assert_eq!(c.count(7, 1), 0);
        assert_eq!(c.count(7, 2), 2);
        // Keyed increments to a registered chunk land in the same slots.
        c.increment(7, 0);
        assert_eq!(c.count(7, 0), 2);
    }

    #[test]
    fn registration_survives_clear() {
        let c = BlockCounters::new();
        let base = c.register_chunk(3, 2);
        c.increment_at(base, 1);
        c.clear();
        assert_eq!(c.count(3, 1), 0);
        assert_eq!(c.register_chunk(3, 2), base);
    }

    #[test]
    fn growing_a_registration_carries_its_counts() {
        let c = BlockCounters::new();
        let base = c.register_chunk(0, 2);
        c.increment_at(base, 1);
        c.increment(0, 5); // beyond the registered range
        let grown = c.register_chunk(0, 6);
        assert_ne!(grown, base, "the chunk moved to a larger range");
        assert_eq!(c.count(0, 1), 1);
        assert_eq!(c.count(0, 5), 1);
        assert_eq!(c.len(), 2, "the abandoned range holds nothing");
    }

    #[test]
    fn remap_carries_counts_to_the_new_id() {
        let c = BlockCounters::new();
        c.register_chunk(4, 2);
        c.increment(4, 0);
        c.increment(4, 1);
        c.increment(4, 1);
        c.increment(4, 9); // beyond the registered range
        c.remap_chunk(4, 40);
        assert_eq!(c.count(4, 0), 0, "old id is empty");
        assert_eq!(c.count(40, 0), 1);
        assert_eq!(c.count(40, 1), 2);
        assert_eq!(c.count(40, 9), 1);
    }

    #[test]
    fn remap_merges_into_existing_counts() {
        let c = BlockCounters::new();
        c.register_chunk(1, 3);
        c.register_chunk(2, 2);
        c.increment(1, 0);
        c.increment(1, 2); // beyond chunk 2's range: grows it
        c.increment(2, 0);
        c.increment(2, 1);
        c.remap_chunk(1, 2);
        assert_eq!(c.count(2, 0), 2, "counts are summed");
        assert_eq!(c.count(2, 1), 1);
        assert_eq!(c.count(2, 2), 1);
        assert_eq!(c.count(1, 0), 0);
    }

    #[test]
    fn remap_of_unknown_or_identical_ids_is_a_noop() {
        let c = BlockCounters::new();
        c.increment(5, 0);
        c.remap_chunk(9, 10);
        c.remap_chunk(5, 5);
        assert_eq!(c.count(5, 0), 1);
    }

    #[test]
    fn sampling_registry_estimates_from_beacon_samples() {
        let c = BlockCounters::sampling_manual();
        assert_eq!(c.sample_hz(), Some(0));
        assert!(!c.has_sampler_thread(), "manual mode has no sampler thread");
        let base = c.register_chunk(2, 4);
        c.increment_at(base, 1);
        assert_eq!(c.count(2, 1), 0, "publishing alone tallies nothing");
        c.sample_now();
        c.sample_now();
        assert_eq!(c.count(2, 1), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.snapshot(), HashMap::from([((2, 1), 2)]));
        c.park();
        c.sample_now();
        assert_eq!(c.count(2, 1), 2, "parked beacon attributes nothing");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.register_chunk(2, 4), base, "registration survives clear");
    }

    #[test]
    fn sampling_keyed_increment_lazily_registers() {
        let c = BlockCounters::sampling_manual();
        c.increment(9, 3);
        c.sample_now();
        assert_eq!(c.count(9, 3), 1);
        // Keyed entries to the now-registered chunk land in the same slots.
        c.increment(9, 3);
        c.sample_now();
        assert_eq!(c.count(9, 3), 2);
    }

    #[test]
    fn sampling_remap_moves_and_merges_estimates() {
        let c = BlockCounters::sampling_manual();
        let base = c.register_chunk(4, 2);
        c.increment_at(base, 1);
        c.sample_now();
        c.remap_chunk(4, 40);
        assert_eq!(c.count(4, 1), 0, "old id is empty");
        assert_eq!(c.count(40, 1), 1);
        // Remapping onto a chunk with counts of its own sums them.
        let other = c.register_chunk(5, 2);
        c.increment_at(other, 1);
        c.sample_now();
        c.remap_chunk(5, 40);
        assert_eq!(c.count(40, 1), 2);
    }

    #[test]
    fn sampling_with_thread_reports_rate() {
        let c = BlockCounters::with_sampling(499);
        assert_eq!(c.sample_hz(), Some(499));
        assert!(c.has_sampler_thread());
        assert!(c.sampling_shared().is_some());
    }

    /// One step of the randomized workload for the reference-model
    /// oracle below.
    #[derive(Clone, Debug)]
    enum Op {
        Register(u32, u32),
        Increment(u32, u32),
        Remap(u32, u32),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            ((0u32..4), (1u32..6)).prop_map(|(c, n)| Op::Register(c, n)),
            ((0u32..4), (0u32..6)).prop_map(|(c, b)| Op::Increment(c, b)),
            ((0u32..4), (0u32..6)).prop_map(|(c, b)| Op::Increment(c, b)),
            ((0u32..4), (0u32..4)).prop_map(|(o, n)| Op::Remap(o, n)),
            Just(Op::Clear),
        ]
    }

    proptest! {
        /// The dense registry counts exactly like a keyed `HashMap`
        /// reference model under any mix of registrations (including ones
        /// that grow a chunk), keyed increments, remaps and clears.
        #[test]
        fn dense_registry_matches_a_keyed_reference_model(
            ops in proptest::collection::vec(op(), 0..60),
        ) {
            let c = BlockCounters::new();
            let mut model: HashMap<(u32, u32), u64> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Register(chunk, n) => {
                        c.register_chunk(chunk, n);
                    }
                    Op::Increment(chunk, b) => {
                        c.increment(chunk, b);
                        *model.entry((chunk, b)).or_default() += 1;
                    }
                    Op::Remap(old, new) => {
                        c.remap_chunk(old, new);
                        if old != new {
                            let moved: Vec<_> = model
                                .iter()
                                .filter(|((ch, _), _)| *ch == old)
                                .map(|((_, b), v)| (*b, *v))
                                .collect();
                            model.retain(|(ch, _), _| *ch != old);
                            for (b, v) in moved {
                                *model.entry((new, b)).or_default() += v;
                            }
                        }
                    }
                    Op::Clear => {
                        c.clear();
                        model.clear();
                    }
                }
            }
            prop_assert_eq!(c.snapshot(), model.clone());
            prop_assert_eq!(c.len(), model.len());
            for (&(chunk, b), &v) in &model {
                prop_assert_eq!(c.count(chunk, b), v);
            }
        }
    }
}
