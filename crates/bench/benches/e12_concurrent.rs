//! E12 bench — concurrent profile collection: the adaptive subsystem's
//! lock-striped [`ShardedCounters`] vs. the obvious `Mutex<HashMap>`
//! registry, under 1/2/4/8 threads of counter traffic.
//!
//! Claim under test: sharding keeps aggregate increment throughput scaling
//! with threads, where a single mutex serializes every hit (target: ≥ 4×
//! the mutexed baseline at 8 threads). The collapse of the global mutex is
//! a *contention* effect: it needs threads running in parallel. The bench
//! prints the host's available parallelism — on a single-core host the
//! threads time-slice, no lock is ever contended, and the measurement
//! degenerates to per-op overhead (where the two designs are within ~15%
//! of each other; see `DESIGN.md`).
//!
//! A second pair benchmarks the proc-macro runtime: the seed's global
//! `Mutex<HashMap<String, u64>>` — which allocated a `String` per hit —
//! against a `pgmp_rt::Profiler` hit through slots resolved once, as the
//! macro-generated `Point`s do, into per-thread single-writer lanes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgmp_adaptive::ShardedCounters;
use pgmp_profiler::Dataset;
use pgmp_syntax::SourceObject;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const POINTS: usize = 64;
const HITS_PER_THREAD: u64 = 50_000;

fn points() -> Vec<SourceObject> {
    (0..POINTS as u32)
        .map(|i| SourceObject::new("e12.scm", i * 2, i * 2 + 1))
        .collect()
}

/// The baseline everyone writes first: one mutex around one hash map.
#[derive(Default)]
struct MutexedCounters {
    counts: Mutex<HashMap<SourceObject, u64>>,
}

impl MutexedCounters {
    fn increment(&self, p: SourceObject) {
        let mut counts = self.counts.lock().unwrap();
        let c = counts.entry(p).or_insert(0);
        *c = c.saturating_add(1);
    }

    fn snapshot(&self) -> Dataset {
        self.counts
            .lock()
            .unwrap()
            .iter()
            .map(|(p, c)| (*p, *c))
            .collect()
    }
}

/// Wall-clock for `threads` workers each issuing `HITS_PER_THREAD`
/// round-robin increments through `hit`, repeated `iters` times.
fn hammer<R: Sync>(iters: u64, threads: usize, registry: &R, hit: impl Fn(&R, SourceObject) + Sync) -> Duration {
    let ps = points();
    let start = Instant::now();
    for _ in 0..iters {
        std::thread::scope(|s| {
            for t in 0..threads {
                let ps = &ps;
                let hit = &hit;
                s.spawn(move || {
                    for i in 0..HITS_PER_THREAD {
                        hit(registry, ps[(i as usize + t) % POINTS]);
                    }
                });
            }
        });
    }
    start.elapsed()
}

/// The registry design the seed's `pgmp-rt` shipped: one global mutex, one
/// SipHash map, and a `String` allocation on every hit.
#[derive(Default)]
struct SeedRtRegistry {
    counts: Mutex<HashMap<String, u64>>,
}

impl SeedRtRegistry {
    fn hit(&self, point: &str) {
        let mut reg = self.counts.lock().unwrap();
        *reg.entry(point.to_owned()).or_insert(0) += 1;
    }
}

fn bench_concurrent_counters(c: &mut Criterion) {
    eprintln!(
        "e12: host parallelism = {} (contention effects require > 1)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut group = c.benchmark_group("e12_concurrent");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| {
                let counters = ShardedCounters::new();
                b.iter_custom(|iters| {
                    let d = hammer(iters, threads, &counters, |c, p| c.increment(p));
                    black_box(counters.snapshot());
                    counters.clear();
                    d
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mutexed", threads),
            &threads,
            |b, &threads| {
                let counters = MutexedCounters::default();
                b.iter_custom(|iters| {
                    let d = hammer(iters, threads, &counters, |c, p| c.increment(p));
                    black_box(counters.snapshot());
                    counters.counts.lock().unwrap().clear();
                    d
                });
            },
        );
    }
    group.finish();

    // The proc-macro runtime pair: named profile points.
    let names: Vec<String> = (0..POINTS).map(|i| format!("bench::arm#{i}")).collect();
    let hammer_points = |iters: u64, threads: usize, hit: &(dyn Fn(usize) + Sync)| {
        let start = Instant::now();
        for _ in 0..iters {
            std::thread::scope(|s| {
                for t in 0..threads {
                    s.spawn(move || {
                        for i in 0..HITS_PER_THREAD {
                            hit((i as usize + t) % POINTS);
                        }
                    });
                }
            });
        }
        start.elapsed()
    };
    let mut group = c.benchmark_group("e12_rt_registry");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("rt-point-lanes", threads),
            &threads,
            |b, &threads| {
                let profiler = pgmp_rt::Profiler::new();
                profiler.enable();
                let slots: Vec<u32> = names.iter().map(|n| profiler.slot(n)).collect();
                b.iter_custom(|iters| {
                    let d = hammer_points(iters, threads, &|i| profiler.hit_slot(slots[i]));
                    black_box(profiler.snapshot_weights());
                    profiler.reset();
                    d
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("seed-global-mutex", threads),
            &threads,
            |b, &threads| {
                let reg = SeedRtRegistry::default();
                b.iter_custom(|iters| {
                    let d = hammer_points(iters, threads, &|i| reg.hit(&names[i]));
                    black_box(reg.counts.lock().unwrap().len());
                    reg.counts.lock().unwrap().clear();
                    d
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent_counters);
criterion_main!(benches);
