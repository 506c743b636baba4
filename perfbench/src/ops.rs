//! In-process mirrors of the CLI operations. Each calls the layers'
//! public functions in the order the CLI does and opens one span around
//! every call, so the traced run splits an invocation by layer.

use crate::bench::THREADS;
use crate::rt_load::{self, RtOutcome};
use crate::trace::{Tracer, BENCH, OTHER};
use pgmp::{AnnotateStrategy, Engine, IncrementalConfig, IncrementalEngine};
use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp_bytecode::{compile_chunk, lower_chunk, FusionPlan, Vm};
use pgmp_case_studies::{install, Lib};
use pgmp_eval::{resolve_profile_slots, Core, Value};
use pgmp_profiler::rebase::{rebase as rebase_profile, RebaseConfig};
use pgmp_profiler::{ProfileInformation, ProfileMode, StoredProfile};
use pgmp_reader::read_str;
use pgmp_syntax::Symbol;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The file name every generated program runs under.
pub const FILE: &str = "prog.scm";

/// The libraries a `pgmp-run --libs` value names.
pub fn parse_libs(spec: &str) -> Vec<Lib> {
    let mut libs = Vec::new();
    for name in spec.split(',').filter(|s| !s.is_empty()) {
        match name {
            "if-r" => libs.push(Lib::IfR),
            "exclusive-cond" => libs.push(Lib::ExclusiveCond),
            "case" => libs.push(Lib::Case),
            "oo" => libs.push(Lib::ObjectSystem),
            "list" => libs.push(Lib::ProfiledList),
            "vector" => libs.push(Lib::ProfiledVector),
            "sequence" => libs.push(Lib::Sequence),
            "all" => libs.extend([
                Lib::IfR,
                Lib::Case,
                Lib::ObjectSystem,
                Lib::ProfiledList,
                Lib::ProfiledVector,
                Lib::Sequence,
            ]),
            other => panic!("unknown library {other}"),
        }
    }
    libs
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn read_source(tr: &mut Tracer, dir: &Path) -> Result<String, String> {
    tr.span(OTHER, "read_source", || {
        std::fs::read_to_string(dir.join(FILE)).map_err(err)
    })
}

/// A fresh engine with `libs` installed. When tracing, the meta
/// interpreter's `profile-query` is wrapped to count the queries.
fn engine_with_libs(
    tr: &mut Tracer,
    libs: &[Lib],
    queries: &Rc<Cell<u64>>,
) -> Result<Engine, String> {
    let mut engine = tr.span("core", "engine_new", || {
        Engine::with_strategy(AnnotateStrategy::Direct)
    });
    if tr.enabled() {
        tr.span(BENCH, "count_queries", || {
            let meta = &mut engine.expander_mut().meta;
            if let Some(query) = meta.global(Symbol::intern("profile-query")).cloned() {
                let queries = queries.clone();
                meta.define_native("profile-query", 1, Some(1), move |interp, args| {
                    queries.set(queries.get() + 1);
                    interp.apply(&query, args)
                });
            }
        });
    }
    tr.span("case_studies", "install", || {
        libs.iter().try_for_each(|lib| install(&mut engine, *lib))
    })
    .map_err(err)?;
    Ok(engine)
}

fn count_nodes(cores: &[Rc<Core>]) -> f64 {
    let mut n = 0u64;
    for c in cores {
        c.walk(&mut |_| n += 1);
    }
    n as f64
}

/// The plain `pgmp-run` pipeline: read, expand, evaluate. `mode` turns
/// instrumentation on; `profile` is `--load`.
fn plain_run(
    tr: &mut Tracer,
    dir: &Path,
    libs: &[Lib],
    profile: Option<&str>,
    mode: ProfileMode,
) -> Result<(Engine, String), String> {
    let src = read_source(tr, dir)?;
    let queries = Rc::new(Cell::new(0));
    let mut engine = engine_with_libs(tr, libs, &queries)?;
    if let Some(p) = profile {
        let path = dir.join(p);
        tr.span("profiler", "load", || engine.load_profile(&path))
            .map_err(err)?;
        if tr.enabled() {
            tr.count("profiler.load_bytes", file_len(&path));
        }
    }
    engine.set_instrumentation(mode);
    let forms = tr
        .span("reader", "read", || read_str(&src, FILE))
        .map_err(err)?;
    let program = tr
        .span("expander", "expand", || {
            engine.expander_mut().expand_program(&forms)
        })
        .map_err(err)?;
    tr.span(OTHER, "slots", || {
        if mode.is_on() {
            let counters = engine.counters();
            if counters.map_id() != 0 {
                for form in &program {
                    resolve_profile_slots(form, &counters);
                }
            }
            engine.interp_mut().set_profiling(mode, counters);
        } else {
            engine.interp_mut().clear_profiling();
        }
    });
    let value = tr
        .span("eval", "eval", || {
            let mut last = Value::Unspecified;
            for form in &program {
                last = engine.interp_mut().eval(form, &None)?;
            }
            Ok::<_, pgmp_eval::EvalError>(last)
        })
        .map_err(err)?;
    let printed = tr.span(OTHER, "output", || {
        if mode.is_on() {
            engine.counters().park();
        }
        let _ = engine.take_warnings();
        format!("{}{}", engine.take_output(), value.write_string())
    });
    if tr.enabled() {
        tr.begin(BENCH, "count");
        let nodes = count_nodes(&program);
        let hits: u64 = engine.counters().snapshot().iter().map(|(_, c)| c).sum();
        tr.end();
        tr.count("reader.forms", forms.len() as f64);
        tr.count("reader.bytes", src.len() as f64);
        tr.count("expander.forms", forms.len() as f64);
        tr.count("expander.core_nodes", nodes);
        tr.count("expander.profile_queries", queries.get() as f64);
        tr.count("profiler.hits", hits as f64);
    }
    Ok((engine, printed))
}

/// `pgmp-run --libs L --instrument every --store OUT prog.scm`
pub fn train(tr: &mut Tracer, dir: &Path, libs: &[Lib], out: &str) -> Result<String, String> {
    let (engine, printed) = plain_run(tr, dir, libs, None, ProfileMode::EveryExpression)?;
    let path = dir.join(out);
    tr.span("profiler", "store", || engine.store_profile(&path))
        .map_err(err)?;
    if tr.enabled() {
        tr.count("profiler.store_bytes", file_len(&path));
    }
    tr.span(OTHER, "drop", || drop(engine));
    Ok(printed)
}

/// `pgmp-run --libs L prog.scm`: the uninstrumented twin of [`train`],
/// whose eval time is the base of `profiler.ns_per_hit`.
pub fn train_plain(tr: &mut Tracer, dir: &Path, libs: &[Lib]) -> Result<String, String> {
    let (engine, printed) = plain_run(tr, dir, libs, None, ProfileMode::Off)?;
    tr.span(OTHER, "drop", || drop(engine));
    Ok(printed)
}

/// `pgmp-run --libs L --load P prog.scm`
pub fn run(tr: &mut Tracer, dir: &Path, libs: &[Lib], profile: &str) -> Result<String, String> {
    let (engine, printed) = plain_run(tr, dir, libs, Some(profile), ProfileMode::Off)?;
    tr.span(OTHER, "drop", || drop(engine));
    Ok(printed)
}

fn load_stored(tr: &mut Tracer, dir: &Path, name: &str) -> Result<StoredProfile, String> {
    let path = dir.join(name);
    let stored = tr
        .span("profiler", "load", || StoredProfile::load_file(&path))
        .map_err(err)?;
    if tr.enabled() {
        tr.count("profiler.load_bytes", file_len(&path));
    }
    Ok(stored)
}

/// `pgmp-profile merge -o OUT A B` (version-1 inputs, version-1 output)
pub fn merge(tr: &mut Tracer, dir: &Path, a: &str, b: &str, out: &str) -> Result<(), String> {
    let mut merged = ProfileInformation::empty();
    for input in [a, b] {
        let stored = load_stored(tr, dir, input)?;
        merged = tr.span("profiler", "merge", || merged.merge(&stored.info));
    }
    let path = dir.join(out);
    tr.span("profiler", "store", || {
        StoredProfile::v1(merged).store_file(&path)
    })
    .map_err(err)?;
    if tr.enabled() {
        tr.count("profiler.store_bytes", file_len(&path));
    }
    Ok(())
}

/// The file `pgmp-profile rebase` re-anchors: the one most of the
/// profile's points name, with generated `%pgmp` suffixes stripped.
pub fn rebased_file(stored: &StoredProfile) -> Option<String> {
    let mut by_file: Vec<(&str, usize)> = Vec::new();
    for (p, _) in stored.info.iter() {
        let s = p.file.as_str();
        let base = s.find("%pgmp").map_or(s, |i| &s[..i]);
        match by_file.iter_mut().find(|(f, _)| *f == base) {
            Some((_, n)) => *n += 1,
            None => by_file.push((base, 1)),
        }
    }
    by_file
        .iter()
        .max_by_key(|(_, n)| *n)
        .map(|(f, _)| (*f).to_owned())
}

/// `pgmp-profile rebase -o OUT OLD.pgmp OLD.scm prog.scm`. Returns the
/// file it rebased.
pub fn rebase(
    tr: &mut Tracer,
    dir: &Path,
    old: &str,
    old_src: &str,
    out: &str,
) -> Result<String, String> {
    let stored = load_stored(tr, dir, old)?;
    let file = tr
        .span(OTHER, "pick_file", || rebased_file(&stored))
        .ok_or_else(|| format!("{old}: profile has no points to rebase"))?;
    let (old_text, new_text) = tr
        .span(OTHER, "read_sources", || {
            Ok::<_, std::io::Error>((
                std::fs::read_to_string(dir.join(old_src))?,
                std::fs::read_to_string(dir.join(FILE))?,
            ))
        })
        .map_err(err)?;
    let result = tr
        .span("profiler", "rebase", || {
            rebase_profile(
                &stored,
                &old_text,
                &new_text,
                &file,
                &RebaseConfig::default(),
            )
        })
        .map_err(err)?;
    let path = dir.join(out);
    tr.span("profiler", "store", || result.profile.store_file(&path))
        .map_err(err)?;
    if tr.enabled() {
        tr.count("profiler.store_bytes", file_len(&path));
        tr.count(
            "profiler.rebase_retained_weight",
            result.report.retained_weight,
        );
        tr.count("profiler.rebase_old_weight", result.report.old_weight_total);
    }
    tr.span(OTHER, "drop", || drop((stored, result)));
    Ok(file)
}

/// `pgmp-run --libs L --incremental --load P --load-state S --save-state
/// T prog.scm`. Also returns the compiled core forms, for [`lower`].
pub fn recompile(
    tr: &mut Tracer,
    dir: &Path,
    libs: &[Lib],
    profile: &str,
    state_in: &str,
    state_out: &str,
) -> Result<(String, Vec<Rc<Core>>), String> {
    let src = read_source(tr, dir)?;
    let queries = Rc::new(Cell::new(0));
    let engine = engine_with_libs(tr, libs, &queries)?;
    let mut incr = tr
        .span("core", "incr_new", || {
            IncrementalEngine::with_engine(engine, &src, FILE, IncrementalConfig::default())
        })
        .map_err(err)?;
    let state_path = dir.join(state_in);
    let warm = tr
        .span("core", "session_load", || incr.load_state(&state_path))
        .map_err(err)?;
    let profile_path = dir.join(profile);
    let weights = tr
        .span("profiler", "load", || {
            ProfileInformation::load_file(&profile_path)
        })
        .map_err(err)?;
    let unit = tr
        .span("core", "incr_compile", || incr.compile(&weights))
        .map_err(err)?;
    let mut vm = Vm::new();
    let value = tr
        .span("bytecode", "vm", || {
            let mut last = String::from("#<void>");
            for chunk in &unit.chunks {
                last = vm
                    .run_chunk(incr.engine_mut().interp_mut(), chunk)?
                    .write_string();
            }
            Ok::<_, pgmp_eval::EvalError>(last)
        })
        .map_err(err)?;
    let printed = tr.span(OTHER, "output", || {
        let _ = incr.engine_mut().take_warnings();
        format!("{}{}", incr.engine_mut().take_output(), value)
    });
    let out_path = dir.join(state_out);
    tr.span("core", "session_save", || incr.save_state(&out_path))
        .map_err(err)?;
    if tr.enabled() {
        tr.count("profiler.load_bytes", file_len(&profile_path));
        tr.count("core.session_bytes", file_len(&out_path));
        tr.count("core.forms_restored", warm.restored as f64);
        tr.count("core.forms_total", warm.total_forms as f64);
        tr.count("core.reexpanded", unit.stats.reexpanded as f64);
        tr.count("expander.profile_queries", queries.get() as f64);
        tr.count("bytecode.dispatches", vm.metrics.dispatches as f64);
        tr.count("bytecode.calls", vm.metrics.calls as f64);
    }
    tr.span(OTHER, "drop", || drop((incr, vm, weights)));
    Ok((printed, unit.cores))
}

/// Traced-only probe: compiles `cores` to blocks and lowers the blocks
/// to flat ops, as the incremental path does inside
/// `IncrementalEngine::compile` and the VM does on first execution.
pub fn lower(tr: &mut Tracer, cores: &[Rc<Core>]) {
    let chunks: Vec<_> = tr.span("bytecode", "compile", || {
        cores.iter().map(compile_chunk).collect()
    });
    let plan = FusionPlan::none();
    let flats: Vec<_> = tr.span("bytecode", "lower", || {
        chunks.iter().map(|c| lower_chunk(c, &plan)).collect()
    });
    let blocks: usize = chunks.iter().map(|c| c.blocks.len()).sum();
    let instrs: usize = chunks
        .iter()
        .flat_map(|c| &c.blocks)
        .map(|b| b.instrs.len() + 1)
        .sum();
    let flat_ops: usize = flats.iter().map(|f| f.ops.len()).sum();
    tr.count("bytecode.blocks", blocks as f64);
    tr.count("bytecode.ops", instrs as f64);
    tr.count("bytecode.flat_ops", flat_ops as f64);
}

/// `pgmp-run --libs L --adaptive --threads 2 --epochs E prog.scm`.
/// Returns the worker runs completed.
pub fn online(tr: &mut Tracer, dir: &Path, libs: &[Lib], epochs: u64) -> Result<u64, String> {
    let src = read_source(tr, dir)?;
    let setup_libs = libs.to_vec();
    let mut engine = tr
        .span("adaptive", "setup", || {
            AdaptiveEngine::with_setup(&src, FILE, AdaptiveConfig::default(), move |e| {
                setup_libs.iter().try_for_each(|lib| install(e, *lib))
            })
        })
        .map_err(err)?;
    let (mut hits, mut reoptimized) = (0, 0);
    for _ in 0..epochs {
        tr.span("adaptive", "collect", || {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let h = engine.handle();
                        s.spawn(move || h.collect_run(None))
                    })
                    .collect();
                workers.into_iter().try_for_each(|w| {
                    w.join()
                        .map_err(|_| "worker thread panicked".to_owned())?
                        .map_err(err)
                })
            })
        })?;
        let report = tr.span("adaptive", "tick", || engine.tick()).map_err(err)?;
        hits += report.hits;
        reoptimized += u64::from(report.reoptimized);
    }
    tr.span(OTHER, "drop", || drop(engine));
    if tr.enabled() {
        tr.count("adaptive.hits", hits as f64);
        tr.count("adaptive.reoptimizations", reoptimized as f64);
    }
    Ok(THREADS * epochs)
}

/// The `pgmp-rt-hits` load, in process.
pub fn rt(tr: &mut Tracer) -> RtOutcome {
    let out = tr.span("rt", "hits", rt_load::hammer);
    if tr.enabled() {
        tr.count("rt.hits", out.counted as f64);
        tr.count("rt.thread_ns", (out.loop_ns * THREADS) as f64);
        tr.count("rt.lost_hits", out.lost() as f64);
    }
    out
}

/// One op for a fresh process to run: the CLI invocation it mirrors, with
/// its inputs. File operands, by kind: `train` [out]; `merge` [a, b, out];
/// `run` [profile]; `rebase` [old profile, old source, out]; `recompile`
/// [profile, state in, state out].
#[derive(Clone, Debug, Default)]
pub struct OpSpec {
    pub kind: String,
    pub dir: PathBuf,
    pub libs: String,
    pub files: Vec<String>,
    pub epochs: u64,
}

impl OpSpec {
    /// The `perfbench --op ...` arguments that run this op.
    pub fn to_args(&self, trace: bool) -> Vec<String> {
        let mut args = vec!["--op".to_owned(), self.kind.clone()];
        args.extend(["--dir".to_owned(), self.dir.display().to_string()]);
        args.extend(["--libs".to_owned(), self.libs.clone()]);
        args.extend(["--files".to_owned(), self.files.join(",")]);
        for (flag, v) in [("--epochs", self.epochs), ("--trace", u64::from(trace))] {
            args.extend([flag.to_owned(), v.to_string()]);
        }
        args
    }

    /// Parses [`OpSpec::to_args`] output; returns the spec and `--trace`.
    pub fn parse(args: &[String]) -> Result<(OpSpec, bool), String> {
        let mut spec = OpSpec::default();
        let mut trace = false;
        for pair in args.chunks(2) {
            let [flag, v] = pair else {
                return Err(format!("{} needs a value", pair[0]));
            };
            let num = || {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--op" => spec.kind = v.clone(),
                "--dir" => spec.dir = PathBuf::from(v),
                "--libs" => spec.libs = v.clone(),
                "--files" => {
                    spec.files = v
                        .split(',')
                        .filter(|f| !f.is_empty())
                        .map(str::to_owned)
                        .collect()
                }
                "--epochs" => spec.epochs = num()?,
                "--trace" => trace = num()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok((spec, trace))
    }

    fn file(&self, i: usize) -> Result<&str, String> {
        self.files
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("{}: missing file operand {i}", self.kind))
    }
}

fn last_line(printed: String) -> String {
    printed.lines().last().unwrap_or("").to_owned()
}

/// Runs `spec` as one op and returns the last line it printed (or `ok`)
/// with the op's time in ms. A recompile is followed by the [`lower`]
/// probe, as an op of its own.
pub fn execute(tr: &mut Tracer, spec: &OpSpec) -> (Result<String, String>, f64) {
    let libs = parse_libs(&spec.libs);
    let dir = spec.dir.as_path();
    let kind: &'static str = match spec.kind.as_str() {
        "train" => "train",
        "train_plain" => "train_plain",
        "merge" => "merge",
        "run" => "run",
        "rebase" => "rebase",
        "recompile" => "recompile",
        "online" => "online",
        "rt" => "rt",
        other => return (Err(format!("unknown op {other}")), 0.0),
    };
    let mut cores = Vec::new();
    let out = tr.op(kind, |tr| match kind {
        "train" => train(tr, dir, &libs, spec.file(0)?).map(last_line),
        "train_plain" => train_plain(tr, dir, &libs).map(last_line),
        "merge" => {
            merge(tr, dir, spec.file(0)?, spec.file(1)?, spec.file(2)?).map(|()| "ok".into())
        }
        "run" => run(tr, dir, &libs, spec.file(0)?).map(last_line),
        "rebase" => rebase(tr, dir, spec.file(0)?, spec.file(1)?, spec.file(2)?)
            .map(|file| format!("rebased {file}")),
        "recompile" => {
            let (printed, c) =
                recompile(tr, dir, &libs, spec.file(0)?, spec.file(1)?, spec.file(2)?)?;
            cores = c;
            Ok(last_line(printed))
        }
        "online" => online(tr, dir, &libs, spec.epochs).map(|runs| runs.to_string()),
        _ => {
            let out = rt(tr);
            if out.lost() == 0 {
                Ok("ok".into())
            } else {
                Err(format!("{} of {} hits lost", out.lost(), out.issued))
            }
        }
    });
    if tr.enabled() && !cores.is_empty() {
        tr.op("lower", |tr| lower(tr, &cores));
    }
    out
}
