//! The adaptive driver: epochs → drift → re-optimization, continuously.

use crate::counters::ShardedCounters;
use crate::drift::{DriftMetric, HysteresisDetector};
use crate::rolling::RollingProfile;
use pgmp::{ConfigError, Engine, Error, IncrementalConfig, IncrementalEngine};
use pgmp_bytecode::{
    optimize_layout, BlockCounters, Chunk, DispatchMode, FusionPlan, Vm, VmMetrics,
};
use pgmp_eval::{EvalError, EvalErrorKind};
use pgmp_observe as observe;
use pgmp_profiler::{ProfileInformation, ProfileMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Distance measure the engine's drift detector uses: scale-free, so one
/// threshold works across programs of any size.
const METRIC: DriftMetric = DriftMetric::TotalVariation;

/// Tuning knobs for the adaptive loop.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Per-epoch exponential decay of the rolling profile, in `[0, 1]`:
    /// `1.0` never forgets, `0.0` keeps only the latest epoch.
    pub decay: f64,
    /// Total-variation drift above which re-optimization triggers;
    /// nonnegative.
    pub drift_threshold: f64,
    /// Per-point weight drift the incremental cache tolerates before
    /// re-expanding a form (see [`pgmp::IncrementalConfig::epsilon`]).
    pub epsilon: f64,
    /// Number of *consecutive* over-threshold epochs required before the
    /// drift detector fires. `1` (the default) fires immediately; higher
    /// values ride out single-epoch noise spikes.
    pub hysteresis_epochs: u32,
    /// Epochs to skip drift detection after a re-optimization, bounding
    /// the recompile rate under sustained drift. `0` disables.
    pub cooldown_epochs: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.15,
            epsilon: 0.0,
            hysteresis_epochs: 1,
            cooldown_epochs: 0,
        }
    }
}

impl AdaptiveConfig {
    /// Rejects values the loop cannot run with: a decay outside `[0, 1]`
    /// and a negative or NaN threshold (NaN would never fire).
    fn validate(&self) -> Result<(), Error> {
        let bad = |field, value, expected| {
            Err(Error::Config(ConfigError {
                field,
                value,
                expected,
            }))
        };
        if !(0.0..=1.0).contains(&self.decay) {
            return bad("decay", self.decay, "in [0, 1]");
        }
        if self.drift_threshold.is_nan() || self.drift_threshold < 0.0 {
            return bad("drift_threshold", self.drift_threshold, "nonnegative");
        }
        Ok(())
    }
}

/// One compiled, immutable version of the program. Readers grab the
/// current `Arc` and keep serving from it while a newer generation is
/// being compiled and swapped in.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledProgram {
    /// 0 for the initial (profile-less) compile, +1 per re-optimization.
    pub generation: u64,
    /// Fully macro-expanded toplevel forms, printed — what the
    /// profile-guided meta-programs emitted under this generation's
    /// weights.
    pub expansion: Vec<String>,
    /// Canonical control-flow graphs of the bytecode-compiled toplevel
    /// forms.
    pub cfgs: Vec<String>,
    /// Number of profile points in the weights this generation was
    /// optimized under.
    pub optimized_under_points: usize,
    /// Top-level forms served from the incremental cache when this
    /// generation was compiled.
    pub reused_forms: usize,
    /// Top-level forms (re-)expanded when this generation was compiled.
    pub reexpanded_forms: usize,
}

/// What one epoch concluded.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: u64,
    /// Total counter hits drained from the shared registry this epoch.
    pub hits: u64,
    /// Measured drift of the rolling profile from the optimization
    /// baseline.
    pub drift: f64,
    /// Whether the drift detector fired.
    pub fired: bool,
    /// Whether a new program generation was compiled and swapped in.
    pub reoptimized: bool,
    /// Generation serving after this epoch.
    pub generation: u64,
    /// Consecutive over-threshold epochs after this one (hysteresis state).
    pub streak: u32,
    /// Epochs of post-re-optimization cooldown remaining.
    pub cooldown: u32,
}

/// Epoch aggregation state. Only the engine thread touches it.
struct AggState {
    rolling: RollingProfile,
    /// The drift policy; its baseline is the weights the current program
    /// generation was optimized under.
    detector: HysteresisDetector,
    epoch: u64,
}

/// State shared between the engine thread and worker handles.
struct Shared {
    source: String,
    file: String,
    setup: Option<Setup>,
    counters: ShardedCounters,
    program: RwLock<Arc<CompiledProgram>>,
    reoptimizations: AtomicU64,
}

impl Shared {
    /// A fresh single-threaded engine with the setup hook applied.
    fn fresh_engine(&self) -> Result<Engine, Error> {
        let mut engine = Engine::new();
        if let Some(setup) = &self.setup {
            setup(&mut engine)?;
        }
        Ok(engine)
    }
}

/// A cloneable, `Send + Sync` handle for worker threads: bump counters,
/// read the currently-served program.
#[derive(Clone)]
pub struct AdaptiveHandle {
    shared: Arc<Shared>,
}

impl AdaptiveHandle {
    /// The shared counter registry workers feed.
    pub fn counters(&self) -> &ShardedCounters {
        &self.shared.counters
    }

    /// The program generation currently being served. The returned `Arc`
    /// stays valid (and consistent) however many swaps happen after.
    pub fn current_program(&self) -> Arc<CompiledProgram> {
        self.shared
            .program
            .read()
            .expect("adaptive program cell poisoned")
            .clone()
    }

    /// Generation number currently being served.
    pub fn generation(&self) -> u64 {
        self.current_program().generation
    }

    /// Number of re-optimizations performed so far.
    pub fn reoptimizations(&self) -> u64 {
        self.shared.reoptimizations.load(Ordering::Relaxed)
    }

    /// Runs the program once, instrumented, in a fresh engine, and merges
    /// the resulting counts into the shared registry — one unit of
    /// concurrent profile collection. `driver` optionally runs extra
    /// workload source (same engine, separate file) after the program
    /// loads, which is how a service's traffic is simulated against fixed
    /// program source.
    ///
    /// Lives on the handle so worker threads can collect while the owning
    /// thread holds the (single-threaded) re-optimization state.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from either run.
    pub fn collect_run(&self, driver: Option<&str>) -> Result<(), Error> {
        let mut engine = self.shared.fresh_engine()?;
        engine.set_instrumentation(ProfileMode::EveryExpression);
        engine.run_str(&self.shared.source, &self.shared.file)?;
        if let Some(d) = driver {
            engine.run_str(d, "adaptive-driver.scm")?;
        }
        self.shared.counters.absorb(&engine.counters().snapshot());
        Ok(())
    }
}

type Setup = Box<dyn Fn(&mut Engine) -> Result<(), Error> + Send + Sync>;

/// VM-serving state: a persistent [`Vm`] that executes the current
/// generation's compiled chunks with block-level profiling on, so each
/// re-optimization can re-lay-out the code it keeps (drift-driven
/// re-layout) and re-mine the superinstruction plan. Lives on the engine —
/// the VM borrows the incremental engine's interpreter, and both are
/// single-threaded.
struct VmServing {
    vm: Vm,
    /// Block counters for the current generation's serving window; cleared
    /// at each re-optimization so the next re-layout sees only current
    /// behavior (dense registrations survive the clear).
    counters: BlockCounters,
    /// Top-level chunks of the serving generation. Reused forms keep their
    /// chunk ids across re-optimizations, so counters collected against an
    /// earlier generation stay valid for them.
    chunks: Vec<Chunk>,
    /// Whether re-optimization re-mines a [`FusionPlan`] from the window's
    /// counters.
    fuse: bool,
}

/// The online driver that closes the paper's loop.
///
/// The paper's workflow (§4.3) is offline: instrument, run, store,
/// recompile. `AdaptiveEngine` runs the same machinery continuously:
///
/// 1. worker threads feed a [`ShardedCounters`] registry (directly, or by
///    absorbing instrumented runs — see [`AdaptiveEngine::collect_run`]);
/// 2. each epoch, the registry is drained into a [`RollingProfile`]
///    (exponential decay, so old behavior ages out);
/// 3. a [`HysteresisDetector`] compares the current rolling weights
///    against the weights the serving program was optimized under;
/// 4. on drift, the program is re-expanded through the per-form
///    incremental cache ([`pgmp::IncrementalEngine`]: only forms whose
///    consulted weights changed re-expand) and bytecode-compiled, and the
///    resulting [`CompiledProgram`] is atomically swapped in for readers.
///
/// `pgmp::Engine` itself is single-threaded, so compilation happens on
/// whichever thread owns the `AdaptiveEngine`; everything workers touch
/// ([`AdaptiveHandle`]) is `Send + Sync`. The owner drives epochs with
/// [`tick`](AdaptiveEngine::tick), at whatever cadence it chooses.
pub struct AdaptiveEngine {
    config: AdaptiveConfig,
    shared: Arc<Shared>,
    agg: AggState,
    /// The persistent per-form cache every compile goes through. Lives on
    /// the engine (not in [`Shared`]): compilation is single-threaded.
    incremental: IncrementalEngine,
    /// VM-serving state ([`AdaptiveEngine::enable_vm_serving`]); `None`
    /// until enabled.
    serving: Option<VmServing>,
}

impl AdaptiveEngine {
    /// Compiles generation 0 of `source` (no profile) and returns the
    /// driver.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for a decay outside `[0, 1]` or a negative or
    /// NaN drift threshold; otherwise propagates read/expand errors from
    /// the initial compilation.
    pub fn new(source: &str, file: &str, config: AdaptiveConfig) -> Result<AdaptiveEngine, Error> {
        AdaptiveEngine::build(source, file, config, None)
    }

    /// Like [`AdaptiveEngine::new`], with a setup hook run on every fresh
    /// engine (the place to install case-study libraries or extra
    /// primitives before the program is compiled).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] as for [`AdaptiveEngine::new`]; otherwise
    /// propagates setup and initial-compilation errors.
    pub fn with_setup(
        source: &str,
        file: &str,
        config: AdaptiveConfig,
        setup: impl Fn(&mut Engine) -> Result<(), Error> + Send + Sync + 'static,
    ) -> Result<AdaptiveEngine, Error> {
        AdaptiveEngine::build(source, file, config, Some(Box::new(setup)))
    }

    fn build(
        source: &str,
        file: &str,
        config: AdaptiveConfig,
        setup: Option<Setup>,
    ) -> Result<AdaptiveEngine, Error> {
        config.validate()?;
        let placeholder = Arc::new(CompiledProgram {
            generation: 0,
            expansion: Vec::new(),
            cfgs: Vec::new(),
            optimized_under_points: 0,
            reused_forms: 0,
            reexpanded_forms: 0,
        });
        let shared = Arc::new(Shared {
            source: source.to_owned(),
            file: file.to_owned(),
            setup,
            counters: ShardedCounters::new(),
            program: RwLock::new(placeholder),
            reoptimizations: AtomicU64::new(0),
        });
        let incremental = IncrementalEngine::with_engine(
            shared.fresh_engine()?,
            source,
            file,
            IncrementalConfig {
                epsilon: config.epsilon,
            },
        )?;
        let agg = AggState {
            rolling: RollingProfile::new(config.decay),
            detector: HysteresisDetector::new(
                METRIC,
                config.drift_threshold,
                config.hysteresis_epochs,
                config.cooldown_epochs,
            ),
            epoch: 0,
        };
        let mut engine = AdaptiveEngine {
            config,
            shared,
            agg,
            incremental,
            serving: None,
        };
        let gen0 = engine.compile(&ProfileInformation::empty(), 0)?;
        *engine
            .shared
            .program
            .write()
            .expect("adaptive program cell poisoned") = gen0;
        Ok(engine)
    }

    /// The loop configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// A `Send + Sync` handle for worker threads.
    pub fn handle(&self) -> AdaptiveHandle {
        AdaptiveHandle {
            shared: self.shared.clone(),
        }
    }

    /// The program generation currently being served.
    pub fn current_program(&self) -> Arc<CompiledProgram> {
        self.handle().current_program()
    }

    /// Runs the program once, instrumented, in a fresh engine, and merges
    /// the resulting counts into the shared registry. Delegates to
    /// [`AdaptiveHandle::collect_run`]; worker threads should clone a
    /// handle and call it there.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from either run.
    pub fn collect_run(&self, driver: Option<&str>) -> Result<(), Error> {
        self.handle().collect_run(driver)
    }

    /// Turns on VM serving: compiles the current generation's chunks
    /// through the incremental cache, runs them once on a persistent
    /// [`Vm`] (defining the program's globals in the incremental engine's
    /// interpreter), and starts collecting block-level counters. From then
    /// on every re-optimization also re-lays-out the chunks it keeps under
    /// the counters of the closing generation (and, with `fuse`, re-mines
    /// the superinstruction plan) before the new generation starts
    /// serving.
    ///
    /// Top-level side effects run once here and once per re-optimization
    /// (the serving program is expected to be definition-shaped, like any
    /// program a long-lived service re-loads on deploy).
    ///
    /// # Errors
    ///
    /// Propagates compile/run errors.
    pub fn enable_vm_serving(&mut self, dispatch: DispatchMode, fuse: bool) -> Result<(), Error> {
        let unit = self.incremental.compile(self.agg.detector.baseline())?;
        let counters = BlockCounters::new();
        let mut vm = Vm::new();
        vm.dispatch = dispatch;
        vm.set_block_profiling(counters.clone());
        self.serving = Some(VmServing {
            vm,
            counters,
            chunks: unit.chunks,
            fuse,
        });
        self.run_serving_chunks()?;
        Ok(())
    }

    /// True once [`AdaptiveEngine::enable_vm_serving`] has succeeded.
    pub fn vm_serving_enabled(&self) -> bool {
        self.serving.is_some()
    }

    /// One unit of VM-served traffic: re-runs the serving generation's
    /// top-level chunks and then `driver` (expanded through the engine, so
    /// the program's macros are visible) on the serving VM, mirroring what
    /// [`AdaptiveHandle::collect_run`] does tree-walked in a fresh engine.
    /// Block counters accumulate into the current generation's window;
    /// [`Vm::metrics`] accumulate for [`AdaptiveEngine::vm_metrics`].
    /// Returns the last value, printed.
    ///
    /// # Errors
    ///
    /// Fails unless serving is enabled; propagates expansion and runtime
    /// errors.
    pub fn vm_serve_run(&mut self, driver: Option<&str>) -> Result<String, Error> {
        if self.serving.is_none() {
            return Err(Error::Eval(EvalError::new(
                EvalErrorKind::Runtime,
                "vm_serve_run before enable_vm_serving",
            )));
        }
        let mut last = self.run_serving_chunks()?;
        if let Some(src) = driver {
            let engine = self.incremental.engine_mut();
            let cores = engine.expand_to_core(src, "adaptive-vm-driver.scm")?;
            let serving = self.serving.as_mut().expect("checked above");
            let interp = engine.interp_mut();
            for core in &cores {
                last = serving.vm.run_core(interp, core)?.write_string();
            }
        }
        Ok(last)
    }

    /// Cumulative execution metrics of the serving VM (`None` until
    /// [`AdaptiveEngine::enable_vm_serving`]). Copy out before and after a
    /// [`AdaptiveEngine::vm_serve_run`] to measure one unit of traffic.
    pub fn vm_metrics(&self) -> Option<VmMetrics> {
        self.serving.as_ref().map(|s| s.vm.metrics)
    }

    /// Compiles the program under `weights` (expansion + bytecode) through
    /// the incremental cache, off to the side; does not swap. Only forms
    /// whose recorded profile reads changed re-expand.
    fn compile(
        &mut self,
        weights: &ProfileInformation,
        generation: u64,
    ) -> Result<Arc<CompiledProgram>, Error> {
        let unit = self.incremental.compile(weights)?;
        let cfgs = unit.cfgs();
        if let Some(serving) = self.serving.as_mut() {
            // Hand the new generation's chunks to the serving VM; reused
            // forms keep their chunk ids, so the counters collected under
            // the previous generation still apply.
            serving.chunks = unit.chunks;
        }
        Ok(Arc::new(CompiledProgram {
            generation,
            expansion: unit.expansion,
            cfgs,
            optimized_under_points: weights.len(),
            reused_forms: unit.stats.reused,
            reexpanded_forms: unit.stats.reexpanded,
        }))
    }

    /// Recompiles under `weights` and atomically swaps the new generation
    /// in; the drift baseline moves to `weights` and the cooldown window
    /// (if configured) starts.
    ///
    /// # Errors
    ///
    /// If compilation fails the old generation keeps serving and the
    /// baseline is unchanged.
    fn reoptimize(&mut self, weights: ProfileInformation) -> Result<Arc<CompiledProgram>, Error> {
        let t = observe::timer();
        let next_gen = self.current_program().generation + 1;
        let program = self.compile(&weights, next_gen)?;
        let swap_us = {
            // A plain clock, not an observe span: the swap is interior
            // to the reoptimize span and reported as its `swap_us`.
            let swap_timer = observe::enabled().then(std::time::Instant::now);
            let mut cell = self
                .shared
                .program
                .write()
                .expect("adaptive program cell poisoned");
            *cell = program.clone();
            swap_timer.map_or(0, |t0| t0.elapsed().as_micros() as u64)
        };
        observe::finish(t, |duration_us| observe::EventKind::Reoptimize {
            generation: next_gen,
            reused: program.reused_forms as u32,
            reexpanded: program.reexpanded_forms as u32,
            duration_us,
            swap_us,
        });
        self.agg.detector.rebase(weights);
        self.shared.reoptimizations.fetch_add(1, Ordering::Relaxed);
        self.relayout_serving(next_gen)?;
        Ok(program)
    }

    /// The drift-driven re-layout half of a re-optimization (no-op unless
    /// VM serving is enabled): re-lays-out the new generation's chunks —
    /// and every lambda chunk the serving VM has compiled — under the
    /// block counters collected since the previous generation, re-mines
    /// the superinstruction plan from the same window, re-runs the
    /// (re-laid-out) top-level chunks so re-expanded definitions take
    /// effect, and opens a fresh counter window for the next generation.
    fn relayout_serving(&mut self, generation: u64) -> Result<(), Error> {
        let Some(serving) = self.serving.as_mut() else {
            return Ok(());
        };
        let t = observe::timer();
        for chunk in serving.chunks.iter_mut() {
            *chunk = optimize_layout(chunk, &serving.counters);
        }
        serving.vm.relayout_cached(&serving.counters);
        if serving.fuse {
            let lambda_chunks = serving.vm.compiled_chunks();
            let plan = FusionPlan::mine(
                serving
                    .chunks
                    .iter()
                    .chain(lambda_chunks.iter().map(|c| &**c)),
                &serving.counters,
                3,
            );
            serving.vm.set_fusion(plan);
        }
        let chunks = serving.chunks.len() as u32;
        serving.counters.clear();
        observe::finish(t, |duration_us| observe::EventKind::LayoutReoptimize {
            generation,
            chunks,
            duration_us,
        });
        observe::metrics().counter_add("vm.layout_reoptimizations", 1);
        self.run_serving_chunks()?;
        Ok(())
    }

    /// Runs the serving generation's top-level chunks on the serving VM
    /// against the incremental engine's interpreter (where the serving
    /// globals live), returning the last chunk's value, printed.
    fn run_serving_chunks(&mut self) -> Result<String, Error> {
        let serving = self
            .serving
            .as_mut()
            .expect("run_serving_chunks without serving state");
        let interp = self.incremental.engine_mut().interp_mut();
        let mut last = String::from("#<unspecified>");
        for chunk in &serving.chunks {
            last = serving.vm.run_chunk(interp, chunk)?.write_string();
        }
        Ok(last)
    }

    /// Runs one epoch: drains the counters into the rolling profile,
    /// measures drift, and — if the detector fires — recompiles and swaps
    /// within this call.
    ///
    /// Firing is damped: the raw threshold must be exceeded for
    /// [`AdaptiveConfig::hysteresis_epochs`] consecutive epochs that
    /// counted at least one hit, and never within
    /// [`AdaptiveConfig::cooldown_epochs`] of the last re-optimization.
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors; the aggregation itself cannot
    /// fail.
    pub fn tick(&mut self) -> Result<EpochReport, Error> {
        let t = observe::timer();
        let epoch_data = self.shared.counters.drain();
        let hits: u64 = epoch_data.iter().map(|(_, c)| c).sum();
        let agg = &mut self.agg;
        agg.epoch += 1;
        agg.rolling.absorb(&epoch_data);
        let weights = agg.rolling.weights();
        let reading = agg.detector.observe_epoch(&weights, hits == 0);
        // The damping state the decision was taken in, before a
        // re-optimization rebases the detector.
        let (epoch, streak, cooldown) = (
            agg.epoch,
            agg.detector.streak(),
            agg.detector.cooldown_left(),
        );
        if reading.fired {
            self.reoptimize(weights)?;
        }
        let report = EpochReport {
            epoch,
            hits,
            drift: reading.value,
            fired: reading.fired,
            reoptimized: reading.fired,
            generation: self.current_program().generation,
            streak,
            cooldown,
        };
        self.publish_epoch_metrics(&report);
        observe::finish(t, |duration_us| observe::EventKind::Epoch {
            epoch: report.epoch,
            hits: report.hits,
            drift: report.drift,
            fired: report.fired,
            reoptimized: report.reoptimized,
            generation: report.generation,
            streak: report.streak,
            cooldown: report.cooldown,
            // Counter merges are no longer coalesced; the fields stay in
            // the trace schema, always 0.
            flush_writes: 0,
            flush_merged: 0,
            duration_us,
        });
        Ok(report)
    }

    /// Publishes one epoch's outcome to the process-global metrics
    /// registry (`adaptive.*`). Every consumer — the `--adaptive` console
    /// lines, `--metrics` snapshots — reads these same values, so they
    /// cannot disagree.
    fn publish_epoch_metrics(&self, report: &EpochReport) {
        let m = observe::metrics();
        m.counter_add("adaptive.epochs", 1);
        m.counter_add("adaptive.hits", report.hits);
        if report.fired {
            m.counter_add("adaptive.fired", 1);
        }
        if report.reoptimized {
            m.counter_add("adaptive.reoptimizations", 1);
            let p = self.current_program();
            m.counter_add("adaptive.reused_forms", p.reused_forms as u64);
            m.counter_add("adaptive.reexpanded_forms", p.reexpanded_forms as u64);
        }
        m.gauge_set("adaptive.drift", report.drift);
        m.gauge_set("adaptive.generation", report.generation as f64);
        m.gauge_set("adaptive.streak", f64::from(report.streak));
        m.gauge_set("adaptive.cooldown", f64::from(report.cooldown));
        if let Some(s) = &self.serving {
            m.gauge_set("vm.taken_jumps", s.vm.metrics.taken_jumps as f64);
            m.gauge_set("vm.fused_share", s.vm.metrics.fused_share());
        }
    }

    /// Applies a *fleet* profile — the canonical merged weights pushed by
    /// a `pgmp-profiled` epoch broadcast — as a drift source: measures
    /// drift of `weights` against the weights this engine's serving
    /// program was optimized under and, past the configured threshold,
    /// recompiles and swaps exactly as a local over-threshold epoch
    /// would. Returns the new program when re-optimization ran, `None`
    /// when fleet behavior matches what is already being served.
    ///
    /// Hysteresis and cooldown do not apply: they damp per-epoch counter
    /// noise, while a broadcast is already one merged observation over
    /// the whole fleet (the daemon's merge cadence is the damping).
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors; on failure the old generation
    /// keeps serving and the baseline is unchanged.
    pub fn apply_fleet_profile(
        &mut self,
        weights: &ProfileInformation,
    ) -> Result<Option<Arc<CompiledProgram>>, Error> {
        self.apply_fleet_epoch(weights, 0, 0)
    }

    /// [`AdaptiveEngine::apply_fleet_profile`], stamped with the
    /// broadcast's correlation ids: the daemon's
    /// [`pgmp_observe::instance_id`] and merge epoch from the
    /// `EpochUpdate` frame. Emits a `fleet_apply` trace event carrying
    /// them — the join key `pgmp-trace merge` uses to order this
    /// process's re-optimization after the exact daemon merge that
    /// caused it. Zero ids (a v1 daemon, or no daemon at all) still
    /// record the local decision; they just cannot be joined.
    pub fn apply_fleet_epoch(
        &mut self,
        weights: &ProfileInformation,
        daemon_inst: u64,
        epoch: u64,
    ) -> Result<Option<Arc<CompiledProgram>>, Error> {
        let reading = self.agg.detector.undamped().observe(weights);
        observe::metrics().gauge_set("adaptive.fleet_drift", reading.value);
        // Emitted before the recompile so the merged timeline reads
        // decision-then-work: fleet_apply, then the reoptimize span.
        observe::emit(observe::EventKind::FleetApply {
            daemon_inst,
            epoch,
            drift: reading.value,
            reoptimized: reading.fired,
        });
        if !reading.fired {
            return Ok(None);
        }
        let program = self.reoptimize(weights.clone())?;
        observe::metrics().counter_add("adaptive.fleet_reoptimizations", 1);
        Ok(Some(program))
    }

    /// Persists the aggregation state — rolling profile (decayed counts +
    /// epoch counter) and optimization baseline — to `path`, atomically.
    /// Pair with [`AdaptiveEngine::restore_snapshot`] to carry an online
    /// session's profile memory across a process restart.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic write.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), Error> {
        crate::EpochSnapshot::capture(&self.agg.rolling, self.agg.detector.baseline())
            .store_file(path)
            .map_err(Error::Profile)
    }

    /// Restores aggregation state saved by
    /// [`AdaptiveEngine::save_snapshot`]: the rolling profile resumes its
    /// decay history and the drift baseline is re-established, so the
    /// first epochs after a restart measure drift against what the
    /// previous process had learned — not against an empty profile.
    ///
    /// The engine keeps its *configured* decay factor (the stored one is
    /// diagnostic); hysteresis and cooldown state reset — they damp
    /// within-process oscillation and are meaningless across a restart.
    /// Returns the restored snapshot for inspection.
    ///
    /// # Errors
    ///
    /// Typed [`pgmp_profiler::ProfileStoreError`]s (wrapped in
    /// [`Error::Profile`]) for I/O, corruption, or version problems; the
    /// in-memory state is untouched on error.
    pub fn restore_snapshot(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<crate::EpochSnapshot, Error> {
        let snap = crate::EpochSnapshot::load_file(path).map_err(Error::Profile)?;
        self.agg.rolling =
            RollingProfile::from_parts(self.config.decay, snap.epochs, snap.counts.clone());
        self.agg.detector.restore(snap.baseline.clone());
        self.agg.epoch = snap.epochs;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_syntax::SourceObject;

    // A program whose if-r macro flips branch order by profile weight —
    // self-contained (no case-studies dependency) so the adaptive crate's
    // own tests stay within this crate.
    const IF_R: &str = "
      (define-syntax (if-r stx)
        (syntax-case stx ()
          [(_ test t-branch f-branch)
           (if (< (profile-query #'t-branch) (profile-query #'f-branch))
               #'(if (not test) f-branch t-branch)
               #'(if test t-branch f-branch))]))
      (define (classify n) (if-r (< n 10) 'small 'big))";

    fn drive(lo: i64, hi: i64) -> String {
        format!(
            "(let loop ([i {lo}])
               (unless (= i {hi}) (classify i) (loop (add1 i))))"
        )
    }

    #[test]
    fn generation_zero_compiles_without_profile() {
        let engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let program = engine.current_program();
        assert_eq!(program.generation, 0);
        assert!(!program.expansion.is_empty());
        assert!(!program.cfgs.is_empty());
        assert_eq!(program.optimized_under_points, 0);
        // Unprofiled if-r keeps source order: (if (< n 10) 'small 'big).
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (< n 10) (quote small) (quote big))"),
            "unexpected gen-0 expansion: {text}"
        );
    }

    #[test]
    fn drift_triggers_reoptimization_and_branch_flip() {
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        let gen0 = engine.current_program();

        // Phase 1: traffic is all n >= 10, so 'big dominates.
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(report.fired, "first traffic must drift from empty baseline");
        assert!(report.reoptimized);
        assert_eq!(report.generation, 1);
        let gen1 = engine.current_program();
        assert_ne!(gen1.cfgs, gen0.cfgs, "the flip must reach the bytecode");
        let text = gen1.expansion.join("\n");
        assert!(
            text.contains("(if (not (< n 10)) (quote big) (quote small))"),
            "hot 'big branch should be negated to front: {text}"
        );

        // Same traffic again: no drift, no recompile.
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(!report.fired, "steady traffic re-fired: drift {}", report.drift);
        assert_eq!(report.generation, 1);

        // Phase 2: traffic shifts to n < 10; decay ages 'big out.
        for _ in 0..4 {
            engine.collect_run(Some(&drive(0, 10))).unwrap();
            engine.tick().unwrap();
        }
        let program = engine.current_program();
        assert!(program.generation >= 2, "shift never re-optimized");
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (< n 10) (quote small) (quote big))"),
            "after the shift 'small is hot again: {text}"
        );
        // Generation 0's code again, so generation 0's CFGs.
        assert_eq!(program.cfgs, gen0.cfgs);
    }

    /// Fall-through ratio of the control transfers between two metric
    /// snapshots.
    fn transfer_ratio(before: VmMetrics, after: VmMetrics) -> f64 {
        let ft = after.fallthroughs - before.fallthroughs;
        let tj = after.taken_jumps - before.taken_jumps;
        assert!(ft + tj > 0, "no control transfers measured");
        ft as f64 / (ft + tj) as f64
    }

    #[test]
    fn drift_relayout_raises_the_fallthrough_ratio() {
        // No profile-reading macros: every form is reused across the
        // re-optimization, so any fall-through improvement on the served
        // workload comes from drift-driven block re-layout alone.
        let src = "(define (classify n) (if (< n 10) 'small 'big))";
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(src, "plain.scm", config).unwrap();
        engine.enable_vm_serving(DispatchMode::Flat, true).unwrap();
        assert!(engine.vm_serving_enabled());

        // Serve shifted traffic: n >= 10 throughout, so classify's
        // source-second 'big branch is the hot one (a taken jump under the
        // source-order layout).
        let before = engine.vm_metrics().unwrap();
        engine.vm_serve_run(Some(&drive(10, 60))).unwrap();
        let pre = transfer_ratio(before, engine.vm_metrics().unwrap());

        // Source-level drift from the empty baseline fires; the compile
        // reuses every form; the re-layout half re-orders the serving
        // chunks (and the VM's cached lambda bodies) under the counters
        // the serving run just collected.
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(report.reoptimized, "drift from empty baseline must fire");
        assert!(
            engine.current_program().reused_forms > 0,
            "plain program must reuse, not re-expand"
        );

        // The same workload again: the hot branch now falls through.
        let before = engine.vm_metrics().unwrap();
        engine.vm_serve_run(Some(&drive(10, 60))).unwrap();
        let post = transfer_ratio(before, engine.vm_metrics().unwrap());
        assert!(
            post > pre,
            "re-layout must raise the fall-through ratio: pre {pre:.3} post {post:.3}"
        );
    }

    #[test]
    fn snapshot_restores_profile_memory_across_engines() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };

        // "Process 1": learn that 'big is hot, re-optimize, snapshot.
        {
            let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config.clone()).unwrap();
            engine.collect_run(Some(&drive(10, 60))).unwrap();
            let report = engine.tick().unwrap();
            assert!(report.reoptimized);
            engine.save_snapshot(&path).unwrap();
        }

        // "Process 2": restore; identical traffic must NOT fire (the
        // baseline carried over), unlike a cold engine where the very
        // first traffic always drifts from the empty baseline.
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        let snap = engine.restore_snapshot(&path).unwrap();
        assert!(snap.epochs >= 1);
        assert!(!snap.baseline.is_empty());
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(
            !report.fired,
            "restored baseline treated steady traffic as drift: {}",
            report.drift
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_from_corrupt_snapshot_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        std::fs::write(&path, "(pgmp-epoch (version 9))").unwrap();
        let mut engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let err = engine.restore_snapshot(&path);
        assert!(matches!(err, Err(Error::Profile(_))), "{err:?}");
        // Engine still works after the failed restore.
        engine.collect_run(Some(&drive(0, 5))).unwrap();
        engine.tick().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_epochs_never_fire() {
        let mut engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        engine.collect_run(Some(&drive(0, 20))).unwrap();
        engine.tick().unwrap();
        let before = engine.current_program().generation;
        for _ in 0..10 {
            let report = engine.tick().unwrap();
            assert!(!report.fired, "idle epoch fired at drift {}", report.drift);
            assert_eq!(report.hits, 0);
        }
        assert_eq!(engine.current_program().generation, before);
    }

    #[test]
    fn failed_recompilation_keeps_serving_old_generation() {
        // A program whose macro errors once a profile point is hot (the
        // transformer calls an unbound procedure): re-optimization fails,
        // but generation 0 must keep serving.
        let booby_trap = "
          (define-syntax (trap stx)
            (syntax-case stx ()
              [(_ e)
               (if (> (profile-query #'e) 0.5)
                   (poison-the-hot-path)
                   #'e)]))
          (define (f) (trap (+ 1 2)))";
        let config = AdaptiveConfig {
            drift_threshold: 0.01,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(booby_trap, "trap.scm", config).unwrap();
        engine.collect_run(Some("(f) (f) (f)")).unwrap();
        let result = engine.tick();
        assert!(result.is_err(), "poisoned recompilation must surface");
        let program = engine.current_program();
        assert_eq!(program.generation, 0, "old generation must keep serving");
        assert!(!program.expansion.is_empty());
    }

    #[test]
    fn fleet_profile_drives_reoptimization() {
        let config = AdaptiveConfig {
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();

        // Discover the program's profile points from one instrumented run,
        // then fabricate "fleet" weights that make 'big hot.
        let mut probe = pgmp::Engine::new();
        probe.set_instrumentation(ProfileMode::EveryExpression);
        probe.run_str(IF_R, "ifr.scm").unwrap();
        probe.run_str(&drive(10, 60), "adaptive-driver.scm").unwrap();
        let fleet = ProfileInformation::from_dataset(&probe.counters().snapshot());

        let program = engine
            .apply_fleet_profile(&fleet)
            .unwrap()
            .expect("fleet drift from empty baseline must re-optimize");
        assert_eq!(program.generation, 1);
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (not (< n 10)) (quote big) (quote small))"),
            "fleet-hot 'big branch should lead: {text}"
        );

        // The same fleet profile again: baseline now matches, no recompile.
        assert!(engine.apply_fleet_profile(&fleet).unwrap().is_none());
        assert_eq!(engine.current_program().generation, 1);

        // Shifted fleet behavior re-optimizes again.
        let mut probe = pgmp::Engine::new();
        probe.set_instrumentation(ProfileMode::EveryExpression);
        probe.run_str(IF_R, "ifr.scm").unwrap();
        probe.run_str(&drive(0, 10), "adaptive-driver.scm").unwrap();
        let shifted = ProfileInformation::from_dataset(&probe.counters().snapshot());
        assert!(engine.apply_fleet_profile(&shifted).unwrap().is_some());
        assert_eq!(engine.current_program().generation, 2);
    }

    #[test]
    fn handle_counters_feed_the_same_registry() {
        let engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let handle = engine.handle();
        let p = SourceObject::new("direct.scm", 0, 1);
        handle.counters().add(p, 41);
        handle.counters().increment(p);
        assert_eq!(engine.handle().counters().count(p), 42);
    }

    /// One epoch of `drive(lo, hi)` traffic (or none), then a tick.
    fn epoch(engine: &mut AdaptiveEngine, traffic: Option<(i64, i64)>) -> EpochReport {
        if let Some((lo, hi)) = traffic {
            engine.collect_run(Some(&drive(lo, hi))).unwrap();
        }
        engine.tick().unwrap()
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let bad = |config| match AdaptiveEngine::new(IF_R, "ifr.scm", config) {
            Err(Error::Config(c)) => c.field,
            Err(e) => panic!("untyped error: {e}"),
            Ok(_) => panic!("invalid config accepted"),
        };
        for decay in [2.0, -0.1, f64::NAN] {
            let config = AdaptiveConfig {
                decay,
                ..AdaptiveConfig::default()
            };
            assert_eq!(bad(config), "decay");
        }
        for drift_threshold in [f64::NAN, -1.0] {
            let config = AdaptiveConfig {
                drift_threshold,
                ..AdaptiveConfig::default()
            };
            assert_eq!(bad(config), "drift_threshold");
        }
    }

    #[test]
    fn hysteresis_rides_out_a_spike_and_fires_on_sustained_drift() {
        let config = AdaptiveConfig {
            hysteresis_epochs: 2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        // A one-epoch spike against the empty generation-0 baseline, then
        // an idle epoch: armed, disarmed, never fired.
        let spike = epoch(&mut engine, Some((10, 60)));
        assert!(spike.drift > 0.15 && !spike.fired, "{spike:?}");
        assert_eq!(spike.streak, 1);
        let idle = epoch(&mut engine, None);
        assert!(!idle.fired);
        assert_eq!(idle.streak, 0, "an idle epoch breaks the streak");
        // Two drifting epochs in a row fire on the second.
        let first = epoch(&mut engine, Some((10, 60)));
        assert!(!first.fired);
        assert_eq!(first.streak, 1);
        let second = epoch(&mut engine, Some((10, 60)));
        assert!(second.fired && second.reoptimized, "{second:?}");
        assert_eq!((second.streak, second.generation), (2, 1));
    }

    #[test]
    fn cooldown_skips_epochs_after_a_reoptimization() {
        // Decay 0 keeps only the latest epoch, so every shifted epoch
        // drifts from the generation-1 baseline by the same amount.
        let config = AdaptiveConfig {
            decay: 0.0,
            drift_threshold: 0.05,
            cooldown_epochs: 2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        let fire = epoch(&mut engine, Some((10, 60)));
        assert!(fire.reoptimized);
        assert_eq!(fire.cooldown, 0, "reported as of the decision");
        for left in [1, 0] {
            let skipped = epoch(&mut engine, Some((0, 10)));
            assert!(skipped.drift > 0.05 && !skipped.fired, "{skipped:?}");
            assert_eq!((skipped.cooldown, skipped.streak), (left, 0));
        }
        let fired = epoch(&mut engine, Some((0, 10)));
        assert!(
            fired.reoptimized,
            "cooldown over, drift persists: {fired:?}"
        );
        assert_eq!(fired.generation, 2);
    }

    #[test]
    fn restore_snapshot_clears_streak_and_cooldown() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-damp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        let config = AdaptiveConfig {
            decay: 0.0,
            drift_threshold: 0.05,
            ..AdaptiveConfig::default()
        };
        let mut learned = AdaptiveEngine::new(IF_R, "ifr.scm", config.clone()).unwrap();
        assert!(epoch(&mut learned, Some((10, 60))).reoptimized);
        learned.save_snapshot(&path).unwrap();

        // Streak: one drifting epoch arms a hysteresis-2 engine; after the
        // restore, the next drifting epoch must arm it again, not fire.
        let mut armed = AdaptiveEngine::new(
            IF_R,
            "ifr.scm",
            AdaptiveConfig {
                hysteresis_epochs: 2,
                ..config.clone()
            },
        )
        .unwrap();
        assert_eq!(epoch(&mut armed, Some((0, 10))).streak, 1);
        armed.restore_snapshot(&path).unwrap();
        let after = epoch(&mut armed, Some((0, 10)));
        assert!(after.drift > 0.05 && !after.fired, "{after:?}");
        assert_eq!(after.streak, 1);

        // Cooldown: a re-optimization starts a long cooldown; the restore
        // ends it, so drift from the restored baseline fires at once.
        let mut cooling = AdaptiveEngine::new(
            IF_R,
            "ifr.scm",
            AdaptiveConfig {
                cooldown_epochs: 100,
                ..config
            },
        )
        .unwrap();
        assert!(epoch(&mut cooling, Some((0, 10))).reoptimized);
        cooling.restore_snapshot(&path).unwrap();
        let after = epoch(&mut cooling, Some((0, 10)));
        assert!(after.reoptimized, "{after:?}");
        assert_eq!(after.cooldown, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
