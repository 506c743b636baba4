//! The embedded-profiling load: Rust code instrumented by the
//! `pgmp-macros` proc macros, counting into `pgmp_rt` from two threads.

use crate::bench::THREADS;
use pgmp_macros::{profile, profiled};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Profiled calls each thread makes: long enough (about half a second
/// in all) that thread start-up and short stalls of the machine are a
/// small part of the loop.
pub const CALLS: u64 = 1_000_000;
/// Profile points one [`mix`] call hits.
pub const HITS_PER_CALL: u64 = 2;

// Every thread calls this one function, as an embedder's threads call one
// `#[profiled]` function, so they all count into the same points.
#[profiled]
fn mix(x: u64) -> u64 {
    profile!(
        "rt-mix",
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    )
}

const POINTS: [&str; 2] = ["fn:mix", "rt-mix"];

/// What one [`hammer`] observed.
#[derive(Clone, Copy, Debug)]
pub struct RtOutcome {
    pub issued: u64,
    pub counted: u64,
    /// Wall time of the hit loops, from the first thread's start to the
    /// last thread's end.
    pub loop_ns: u64,
}

impl RtOutcome {
    pub fn lost(&self) -> u64 {
        self.issued.saturating_sub(self.counted)
    }
}

/// Resets the registry, enables profiling and has [`THREADS`] threads each
/// make [`CALLS`] profiled calls; then reads the counts back. The registry
/// is process-global, so callers must not run two of these at once.
pub fn hammer() -> RtOutcome {
    pgmp_rt::reset();
    pgmp_rt::enable_profiling();
    // Both threads start their loops together, so their hits overlap
    // even when one thread is spawned late.
    let barrier = Barrier::new(THREADS as usize);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let mut acc = t;
                for _ in 0..CALLS {
                    acc = mix(black_box(acc));
                }
                black_box(acc)
            });
        }
    });
    let loop_ns = start.elapsed().as_nanos() as u64;
    pgmp_rt::disable_profiling();
    RtOutcome {
        issued: THREADS * CALLS * HITS_PER_CALL,
        counted: POINTS.iter().map(|p| pgmp_rt::count(p)).sum(),
        loop_ns,
    }
}
