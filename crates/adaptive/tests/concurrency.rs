//! Concurrency guarantees of [`ShardedCounters`]: merging per-shard
//! snapshots is order-independent, and concurrent increments are never
//! lost.

use pgmp_adaptive::ShardedCounters;
use pgmp_profiler::Dataset;
use pgmp_syntax::SourceObject;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

fn point(n: u32) -> SourceObject {
    SourceObject::new("conc.scm", n, n + 1)
}

proptest! {
    /// Splitting a stream of (point, count) events across any number of
    /// worker "shards", absorbing each shard in any order, equals the
    /// single-threaded total — merge is commutative and associative.
    #[test]
    fn shard_merge_is_order_independent(
        events in proptest::collection::vec((0u32..16, 1u64..1000), 0..64),
        shards in 1usize..8,
        rotate in 0usize..8,
    ) {
        // Single-threaded reference: fold every event into one map.
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for (p, c) in &events {
            *reference.entry(*p).or_insert(0) += c;
        }

        // Partition events round-robin into per-shard datasets (a dataset
        // holds one count per point, so pre-sum within each shard).
        let mut parts: Vec<HashMap<u32, u64>> = vec![HashMap::new(); shards];
        for (i, (p, c)) in events.iter().enumerate() {
            *parts[i % shards].entry(*p).or_insert(0) += c;
        }
        let mut datasets: Vec<Dataset> = parts
            .into_iter()
            .map(|part| part.into_iter().map(|(p, c)| (point(p), c)).collect())
            .collect();
        // Absorb the per-shard datasets in a permuted order.
        datasets.rotate_left(rotate % shards);

        let counters = ShardedCounters::new();
        for d in &datasets {
            counters.absorb(d);
        }

        let merged = counters.snapshot();
        for (p, expected) in &reference {
            prop_assert_eq!(merged.count(point(*p)), *expected, "point {}", p);
        }
        let merged_points = merged.iter().filter(|(_, c)| *c > 0).count();
        prop_assert_eq!(merged_points, reference.len());
    }

    /// snapshot() and drain() agree with each other: drain returns exactly
    /// what snapshot saw, then the registry is empty.
    #[test]
    fn drain_equals_snapshot_then_empty(
        events in proptest::collection::vec((0u32..8, 1u64..100), 0..32),
    ) {
        let counters = ShardedCounters::new();
        for (p, c) in &events {
            counters.add(point(*p), *c);
        }
        let before = counters.snapshot();
        let drained = counters.drain();
        for (p, c) in before.iter() {
            prop_assert_eq!(drained.count(p), c);
        }
        prop_assert!(counters.is_empty());
        prop_assert!(counters.snapshot().iter().next().is_none());
    }
}

/// Hammer one registry from many threads; every increment must land
/// exactly once (no lost updates under contention).
#[test]
fn concurrent_increments_are_never_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    const POINTS: u32 = 13; // odd, so threads collide on shards

    let counters = ShardedCounters::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = counters.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.increment(point(((t as u64 + i) % POINTS as u64) as u32));
                }
            });
        }
    });

    let total: u64 = counters.snapshot().iter().map(|(_, c)| c).sum();
    assert_eq!(total, THREADS as u64 * PER_THREAD, "lost updates");
}

/// Drains running concurrently with increments neither lose nor duplicate
/// counts: the sum of everything drained plus the residue equals the
/// number of increments issued.
#[test]
fn concurrent_drain_partitions_every_hit() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 10_000;

    let counters = ShardedCounters::new();
    let mut drained_total = 0u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = counters.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.increment(point((i % 7) as u32 + t as u32 * 10));
                    }
                })
            })
            .collect();
        // Aggregator: drain repeatedly while workers are still hammering.
        while !workers.iter().all(|w| w.is_finished()) {
            drained_total += counters.drain().iter().map(|(_, c)| c).sum::<u64>();
        }
    });
    let residue: u64 = counters.drain().iter().map(|(_, c)| c).sum();
    assert_eq!(
        drained_total + residue,
        THREADS as u64 * PER_THREAD,
        "epoch drains lost or duplicated hits"
    );
}

/// Concurrent equivalence oracle: the dense slot-indexed registry agrees
/// with a `Mutex<HashMap>` reference model on every per-point count after
/// identical concurrent workloads.
#[test]
fn dense_registry_agrees_with_mutex_reference_model() {
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5_000;
    const POINTS: u64 = 11;

    let dense = ShardedCounters::new();
    let model: Mutex<HashMap<SourceObject, u64>> = Mutex::default();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let dense = dense.clone();
            let model = &model;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let p = point(((t * 3 + i) % POINTS) as u32);
                    let n = 1 + (t + i) % 4;
                    dense.add(p, n);
                    *model.lock().unwrap().entry(p).or_insert(0) += n;
                }
            });
        }
    });
    let model = model.into_inner().unwrap();
    for raw in 0..POINTS {
        let p = point(raw as u32);
        assert_eq!(
            dense.count(p),
            model.get(&p).copied().unwrap_or(0),
            "point {raw}"
        );
    }
    let dense_total: u64 = dense.snapshot().iter().map(|(_, c)| c).sum();
    assert_eq!(dense_total, model.values().sum::<u64>());
}
