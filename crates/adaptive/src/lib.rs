//! Online profile-guided meta-programming.
//!
//! The paper's workflow (§4.3) is offline: instrument a build, run the
//! benchmark suite, store the counts, recompile. This crate closes that
//! loop *while the system runs*:
//!
//! - [`ShardedCounters`] — a `Send + Sync` counter registry keyed by
//!   interned profile points ([`pgmp_syntax::SourceObject`]). Points are
//!   interned once to dense slots; bumps are lock-free relaxed atomics on
//!   a [`pgmp_rt::AtomicSlotArray`]. Many worker threads bump it
//!   concurrently; snapshots come out as the existing
//!   [`pgmp_profiler::Dataset`], so the paper's weight normalization and
//!   dataset-merge machinery applies unchanged.
//! - [`RollingProfile`] — epoch aggregation with exponential decay, so
//!   weights track *recent* behavior and stale traffic patterns age out.
//! - [`DriftDetector`] / [`drift`] — L1 or total-variation distance
//!   between the live weights and the weights the running code was last
//!   optimized under; [`HysteresisDetector`] damps it with
//!   consecutive-epoch arming and a post-fire cooldown.
//! - [`AdaptiveEngine`] — on drift, re-optimizes under the new weights
//!   and atomically swaps the [`CompiledProgram`] readers see.
//!   Recompilation is *incremental* ([`pgmp::IncrementalEngine`]): only
//!   top-level forms whose consulted profile weights changed re-expand.
//!   The owning thread drives each epoch with [`AdaptiveEngine::tick`];
//!   the engine's drift policy is a [`HysteresisDetector`] over
//!   total-variation distance.
//!
//! The crate deliberately reuses the single-threaded pipeline for the
//! heavy lifting — expansion, profile points, weights, bytecode — and adds
//! only the concurrency substrate around it, mirroring how the paper
//! layers PGMP on an unmodified Chez Scheme.

mod counters;
mod drift;
mod engine;
mod rolling;
mod snapshot;

pub use counters::ShardedCounters;
pub use drift::{drift, DriftDetector, DriftMetric, DriftReading, HysteresisDetector};
pub use engine::{AdaptiveConfig, AdaptiveEngine, AdaptiveHandle, CompiledProgram, EpochReport};
pub use rolling::RollingProfile;
pub use snapshot::EpochSnapshot;
