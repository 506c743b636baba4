//! Property-based equivalence oracle: the exact slot-indexed registry and
//! the sampling registry's *exact surface* both behave like a plain
//! `HashMap<SourceObject, u64>` reference model. Any interleaving of
//! increments, bulk adds, slot-cached bumps, and clears produces the same
//! counts and the same [`Dataset`] snapshot from every representation.
//!
//! Only [`Counters::record_hit`] diverges between the two (exact counts,
//! sampling publishes a beacon) — everything else, including `add_slot`,
//! `clear`, deltas, and `SlotMap` re-keying, is exact everywhere, which is
//! what lets sampled estimates flow through §3.2 merging, the v2 store,
//! and fleet deltas unchanged.

use pgmp_profiler::{Counters, Dataset};
use pgmp_syntax::SourceObject;
use proptest::prelude::*;
use std::collections::HashMap;

fn point(n: u32) -> SourceObject {
    SourceObject::new("oracle.scm", n, n + 1)
}

/// The registries under comparison. The sampling one is manually driven
/// (no sampler thread), so its exact ops are fully deterministic.
fn all() -> [Counters; 2] {
    [Counters::new(), Counters::sampling_manual()]
}

/// The reference model: one saturating count per point, no slots.
#[derive(Default)]
struct Model(HashMap<SourceObject, u64>);

impl Model {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Increment(p) => self.add(p, 1),
            Op::Add(p, n) | Op::SlotAdd(p, n) => self.add(p, n),
            Op::Clear => self.0.clear(),
        }
    }

    fn add(&mut self, p: u32, n: u64) {
        let c = self.0.entry(point(p)).or_insert(0);
        *c = c.saturating_add(n);
    }

    fn count(&self, p: u32) -> u64 {
        self.0.get(&point(p)).copied().unwrap_or(0)
    }

    fn snapshot(&self) -> Dataset {
        self.0
            .iter()
            .filter(|(_, c)| **c > 0)
            .map(|(p, c)| (*p, *c))
            .collect()
    }
}

/// One step of the randomized workload.
#[derive(Clone, Debug)]
enum Op {
    Increment(u32),
    Add(u32, u64),
    /// Bump through the slot API (resolve + add_slot) — indistinguishable
    /// from a keyed add.
    SlotAdd(u32, u64),
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform; repeating the increment arm
    // weights the workload toward the hot path.
    prop_oneof![
        (0u32..12).prop_map(Op::Increment),
        (0u32..12).prop_map(Op::Increment),
        ((0u32..12), (1u64..1000)).prop_map(|(p, n)| Op::Add(p, n)),
        ((0u32..12), (1u64..1000)).prop_map(|(p, n)| Op::SlotAdd(p, n)),
        Just(Op::Clear),
    ]
}

fn apply(c: &Counters, op: &Op) {
    match *op {
        Op::Increment(p) => c.increment(point(p)),
        Op::Add(p, n) => c.add(point(p), n),
        Op::SlotAdd(p, n) => {
            let slot = c.resolve(point(p));
            c.add_slot(slot, n);
        }
        Op::Clear => c.clear(),
    }
}

proptest! {
    /// Both registries agree with the reference model on every
    /// observable — per-point counts, population size, and the full
    /// snapshot — after any op sequence.
    #[test]
    fn backends_are_observationally_equal(
        ops in proptest::collection::vec(op(), 0..80),
    ) {
        let mut model = Model::default();
        let registries = all();
        for op in &ops {
            model.apply(op);
            for c in &registries {
                apply(c, op);
            }
        }
        let expected = model.snapshot();
        for c in &registries {
            for p in 0..12 {
                prop_assert_eq!(
                    c.count(point(p)),
                    model.count(p),
                    "point {} (sampling: {})", p, c.sample_hz().is_some()
                );
            }
            prop_assert_eq!(c.len(), expected.len());
            prop_assert_eq!(c.is_empty(), expected.is_empty());
            prop_assert_eq!(c.snapshot(), expected.clone());
        }
    }

    /// Snapshots round-trip through the dataset pipeline identically:
    /// feeding every registry the same dataset reproduces it.
    #[test]
    fn absorbed_datasets_round_trip(
        counts in proptest::collection::vec((0u32..16, 1u64..500), 0..32),
    ) {
        let expected: Dataset = {
            let mut m = HashMap::new();
            for (p, c) in &counts {
                *m.entry(point(*p)).or_insert(0u64) += c;
            }
            m.into_iter().collect()
        };
        for c in all() {
            for (p, n) in &counts {
                c.add(point(*p), *n);
            }
            prop_assert_eq!(
                c.snapshot(), expected.clone(), "sampling: {}", c.sample_hz().is_some()
            );
        }
    }

    /// Slot ids are stable across clears for the registry's whole
    /// lifetime, on both registries: whatever ops ran in between,
    /// re-resolving a point always yields its original slot.
    #[test]
    fn slots_stay_stable_under_any_workload(
        ops in proptest::collection::vec(op(), 0..60),
    ) {
        for c in all() {
            let pinned: Vec<u32> = (0..4).map(|p| c.resolve(point(p))).collect();
            for op in &ops {
                apply(&c, op);
            }
            for (p, slot) in pinned.iter().enumerate() {
                prop_assert_eq!(c.resolve(point(p as u32)), *slot);
            }
        }
    }

    /// `take_delta` partitions hits identically on both registries,
    /// across clears (which rebase the reported baseline) and re-keying.
    #[test]
    fn take_delta_agrees_across_slotted_backends(
        ops in proptest::collection::vec(op(), 0..60),
        cut in 0usize..60,
    ) {
        let dense = Counters::new();
        let sampling = Counters::sampling_manual();
        let cut = cut.min(ops.len());
        for op in &ops[..cut] {
            apply(&dense, op);
            apply(&sampling, op);
        }
        prop_assert_eq!(dense.take_delta(), sampling.take_delta());
        for op in &ops[cut..] {
            apply(&dense, op);
            apply(&sampling, op);
        }
        prop_assert_eq!(dense.take_delta(), sampling.take_delta());
    }
}
