//! Workloads, set-up, the timed loop and the result line.

use crate::cli::{children_peak_rss_mb, cpu_seconds, Bins, Invocation};
use crate::gen::{self, edit_for_step, Program};
use crate::ops::{OpSpec, FILE};
use crate::trace::{Tracer, BENCH};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Threads of every concurrent part, sized for a two-core machine.
pub const THREADS: u64 = 2;
/// Set-ups per untraced run; `setup_s` is their median CPU time.
pub const SETUP_REPEATS: usize = 9;
/// The traced run fails when `trace.coverage` leaves this range.
pub const COVERAGE_BOUND: (f64, f64) = (0.9, 1.0);
/// A `_p90` is reported only from this many samples on.
pub const P90_MIN_SAMPLES: usize = 100;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("train_ms_p50", "ms"),
    ("merge_ms_p50", "ms"),
    ("run_ms_p50", "ms"),
    ("rebase_ms_p50", "ms"),
    ("recompile_ms_p50", "ms"),
    ("step_wall_ms_p50", "ms"),
    ("online_runs_per_s", "1/s"),
    ("rt_hits_per_s", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reader.ms", "ms"),
    ("reader.forms", "count"),
    ("reader.bytes", "B"),
    ("expander.ms", "ms"),
    ("expander.forms", "count"),
    ("expander.profile_queries", "count"),
    ("expander.core_nodes", "count"),
    ("expander.allocs", "count"),
    ("eval.ms", "ms"),
    ("eval.allocs", "count"),
    ("bytecode.compile_ms", "ms"),
    ("bytecode.blocks", "count"),
    ("bytecode.ops", "count"),
    ("bytecode.lower_ms", "ms"),
    ("bytecode.flat_ops", "count"),
    ("bytecode.vm_ms", "ms"),
    ("bytecode.dispatches", "count"),
    ("bytecode.calls", "count"),
    ("bytecode.allocs_per_call", "count"),
    ("profiler.hits", "count"),
    ("profiler.ns_per_hit", "ns"),
    ("profiler.store_ms", "ms"),
    ("profiler.store_bytes", "B"),
    ("profiler.load_ms", "ms"),
    ("profiler.load_bytes", "B"),
    ("profiler.merge_ms", "ms"),
    ("profiler.rebase_ms", "ms"),
    ("profiler.rebase_retained", "ratio"),
    ("core.session_load_ms", "ms"),
    ("core.session_save_ms", "ms"),
    ("core.session_bytes", "B"),
    ("core.incr_compile_ms", "ms"),
    ("core.reuse_ratio", "ratio"),
    ("core.reexpanded", "count"),
    ("adaptive.collect_ms", "ms"),
    ("adaptive.hits", "count"),
    ("adaptive.tick_ms", "ms"),
    ("adaptive.reoptimizations", "count"),
    ("rt.ns_per_hit", "ns"),
    ("rt.lost_hits", "count"),
    ("case_studies.install_ms", "ms"),
    ("observe.trace_overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("cli.overhead_ms", "ms"),
];

/// One CLI operation of the cycle, applied to a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `pgmp-run --instrument every --store` on input mix `n`.
    Train(usize),
    /// `pgmp-profile merge`.
    Merge,
    /// `pgmp-run --load`.
    Run,
    /// `pgmp-profile rebase` of the base profile onto the edited program.
    Rebase,
    /// `pgmp-run --incremental --load-state` on the edited program.
    Recompile,
    /// `pgmp-run --adaptive --threads 2`.
    Online,
}

impl Step {
    /// The op kind's name in samples, traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            Step::Train(_) => "train",
            Step::Merge => "merge",
            Step::Run => "run",
            Step::Rebase => "rebase",
            Step::Recompile => "recompile",
            Step::Online => "online",
        }
    }
}

/// Programs whose plan leaves out the rebase and the recompile under its
/// result. `pgmp-profile rebase` re-anchors the file most of a profile's
/// points name; for `shapes` that is the object-system library `oo.scm`,
/// not the edited program, so its rebase would time work of no use.
pub const NOT_REBASED: &[&str] = &["shapes"];

/// Whether `step` applies to the program named `program`.
pub fn applies(step: Step, program: &str) -> bool {
    !(matches!(step, Step::Rebase | Step::Recompile) && NOT_REBASED.contains(&program))
}

/// Plan of the §3.2 cycle: train twice, merge, run optimized; then the
/// edit's rebase and warm recompile, and online serving.
const TRAIN_FIRST: &[Step] = &[
    Step::Train(0),
    Step::Train(1),
    Step::Merge,
    Step::Run,
    Step::Rebase,
    Step::Recompile,
    Step::Online,
];

/// Plan that starts from the edit: rebase, run and recompile under the
/// rebased profile; then retrain, merge the new dataset into the rebased
/// one, and serve online.
const EDIT_FIRST: &[Step] = &[
    Step::Rebase,
    Step::Run,
    Step::Recompile,
    Step::Train(0),
    Step::Merge,
    Step::Online,
];

pub struct Workload {
    pub name: &'static str,
    pub programs: fn(u64) -> Vec<Program>,
    /// Ops applied to every program in one step, in order.
    pub plan: &'static [Step],
    pub online_epochs: u64,
    /// Rows of the self-time report: per edit kind rather than per program.
    pub group_by_edit: bool,
}

impl Workload {
    /// The loop and its sizes, as the workload's `why` in
    /// `BENCHMARK.json` states them.
    pub fn shape(&self) -> String {
        let programs = (self.programs)(0);
        let ops: usize = programs
            .iter()
            .map(|p| self.plan.iter().filter(|&&s| applies(s, p.name)).count())
            .sum();
        format!(
            "Closed loop, 1 client, {THREADS} threads; a step runs {ops} ops over {} program(s), then rt hits.",
            programs.len()
        )
    }

    fn edit_first(&self) -> bool {
        self.plan[0] == Step::Rebase
    }

    /// Profiles the merge combines, and the one the optimized run loads.
    fn merge_inputs(&self) -> [&'static str; 2] {
        if self.edit_first() {
            ["r.pgmp", "a.pgmp"]
        } else {
            ["a.pgmp", "b.pgmp"]
        }
    }

    fn run_profile(&self) -> &'static str {
        if self.edit_first() {
            "r.pgmp"
        } else {
            "m.pgmp"
        }
    }

    fn mixes(&self) -> usize {
        if self.plan.contains(&Step::Train(1)) {
            2
        } else {
            1
        }
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pgo-exec",
        programs: gen::pgo_exec_programs,
        plan: TRAIN_FIRST,
        online_epochs: 2,
        group_by_edit: false,
    },
    Workload {
        name: "edit-loop",
        programs: |seed| vec![gen::edit_loop_program(seed)],
        plan: EDIT_FIRST,
        online_epochs: 1,
        group_by_edit: true,
    },
    Workload {
        name: "online-2t",
        programs: |seed| vec![gen::online_program(seed)],
        plan: TRAIN_FIRST,
        online_epochs: 4,
        group_by_edit: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

struct ProgState {
    program: Program,
    dir: PathBuf,
    /// Text currently in `prog.scm`, to skip rewriting it.
    current: String,
}

impl ProgState {
    fn write(&mut self, text: String) -> std::io::Result<()> {
        if text != self.current {
            std::fs::write(self.dir.join(FILE), &text)?;
            self.current = text;
        }
        Ok(())
    }

    fn lib_args(&self) -> Vec<&str> {
        if self.program.libs.is_empty() {
            Vec::new()
        } else {
            vec!["--libs", self.program.libs]
        }
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

struct Bench {
    args: Args,
    bins: Bins,
    attempted: u64,
    failed: u64,
    /// Per step, the mean CPU time (ms), or rate, of each op kind.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Every op's CPU time (ms) or rate, keyed by op kind.
    raw: BTreeMap<&'static str, Vec<f64>>,
    /// Per step, the mean wall time (ms) of each op kind.
    walls: BTreeMap<&'static str, Vec<f64>>,
}

impl Bench {
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED {what}: {}", detail());
            }
        }
    }

    fn check_cli(&mut self, what: &str, inv: &Invocation, ok: bool) {
        self.check(what, inv.ok && ok, || {
            format!(
                "exit ok={} stdout={:?} stderr={:?}",
                inv.ok,
                inv.last_line(),
                inv.stderr.lines().last().unwrap_or("")
            )
        });
    }

    fn pgmp_run(&self, p: &ProgState, extra: &[&str]) -> Invocation {
        let mut args = p.lib_args();
        args.extend_from_slice(extra);
        args.push(FILE);
        self.bins.run("pgmp-run", &args, &p.dir)
    }

    /// Runs `step` through the CLI and checks its output; returns the wall
    /// and CPU time (ms) when it succeeded.
    fn cli_step(&mut self, step: Step, p: &mut ProgState, program: &Program) -> Option<(f64, f64)> {
        let w = self.args.workload;
        let mix = match step {
            Step::Train(mix) => mix,
            _ => 0,
        };
        if let Err(e) = p.write(program.source(mix)) {
            self.check("write input", false, || e.to_string());
            return None;
        }
        let spec = self.op_spec(step, p);
        let f: Vec<&str> = spec.files.iter().map(String::as_str).collect();
        let expect = program.expected(mix);
        let (inv, ok) = match step {
            Step::Train(_) => {
                let inv = self.pgmp_run(p, &["--instrument", "every", "--store", f[0]]);
                let ok = inv.last_line() == expect;
                (inv, ok)
            }
            Step::Merge => {
                let args = ["merge", "-o", f[2], f[0], f[1]];
                (self.bins.run("pgmp-profile", &args, &p.dir), true)
            }
            Step::Run => {
                let inv = self.pgmp_run(p, &["--load", f[0]]);
                let ok = inv.last_line() == expect;
                (inv, ok)
            }
            Step::Rebase => {
                let args = ["rebase", "-o", f[2], f[0], f[1], FILE];
                let inv = self.bins.run("pgmp-profile", &args, &p.dir);
                let ok = inv.stdout.starts_with(&format!("rebased {FILE}:"));
                (inv, ok)
            }
            Step::Recompile => {
                let args = [
                    "--incremental",
                    "--load",
                    f[0],
                    "--load-state",
                    f[1],
                    "--save-state",
                    f[2],
                ];
                let inv = self.pgmp_run(p, &args);
                let ok = inv.last_line() == expect;
                (inv, ok)
            }
            Step::Online => {
                let epochs = w.online_epochs.to_string();
                let threads = THREADS.to_string();
                let args = ["--adaptive", "--threads", &threads, "--epochs", &epochs];
                let inv = self.pgmp_run(p, &args);
                let served = inv
                    .stderr
                    .lines()
                    .filter(|l| l.starts_with("adaptive: epoch "))
                    .count();
                let ok = served as u64 == w.online_epochs
                    && inv.stderr.contains("adaptive: final generation");
                (inv, ok)
            }
        };
        self.check_cli(&format!("{} {}", step.label(), program.name), &inv, ok);
        (inv.ok && ok).then_some((inv.wall_ms, inv.cpu_ms))
    }

    /// Runs `pgmp-rt-hits`; returns its hits per second.
    fn cli_rt(&mut self, dir: &Path) -> Option<f64> {
        let inv = self.bins.run("pgmp-rt-hits", &[], dir);
        let fields: Vec<u64> = inv
            .last_line()
            .split(' ')
            .filter_map(|s| s.parse().ok())
            .collect();
        let ok = fields.len() == 3 && fields[0] == fields[1] && fields[2] > 0;
        self.check_cli("rt", &inv, ok);
        (inv.ok && ok).then(|| fields[1] as f64 / (fields[2] as f64 / 1e9))
    }

    /// Generates the inputs into `dir` and runs the base training and
    /// session of every program.
    fn setup(&mut self, dir: &Path) -> Result<Vec<ProgState>, String> {
        let w = self.args.workload;
        let mut progs = Vec::new();
        for program in (w.programs)(self.args.seed) {
            let pdir = dir.join(program.name);
            std::fs::create_dir_all(&pdir).map_err(|e| format!("{}: {e}", pdir.display()))?;
            let base = program.source(0);
            std::fs::write(pdir.join("base.scm"), &base).map_err(|e| e.to_string())?;
            let mut p = ProgState {
                program,
                dir: pdir,
                current: String::new(),
            };
            let program = p.program.clone();
            for mix in 0..w.mixes() {
                self.cli_step(Step::Train(mix), &mut p, &program);
            }
            let inputs = &["a.pgmp", "b.pgmp"][..w.mixes()];
            let mut args = vec!["merge", "-o", "base.pgmp"];
            args.extend_from_slice(inputs);
            let inv = self.bins.run("pgmp-profile", &args, &p.dir);
            self.check_cli("setup merge", &inv, true);
            p.write(base).map_err(|e| e.to_string())?;
            let inv = self.pgmp_run(
                &p,
                &[
                    "--incremental",
                    "--load",
                    "base.pgmp",
                    "--save-state",
                    "base.session",
                ],
            );
            let ok = inv.last_line() == program.expected(0);
            self.check_cli("setup session", &inv, ok);
            progs.push(p);
        }
        Ok(progs)
    }

    /// Program `p` under step `step`'s edit, and the report row it
    /// belongs to.
    fn edited_for_step(&self, p: &ProgState, step: u64) -> (Program, String) {
        let edit = edit_for_step(self.args.seed, p.program.name, step);
        let group = if self.args.workload.group_by_edit {
            edit.kind.label().to_owned()
        } else {
            p.program.name.to_owned()
        };
        (p.program.edited(&edit), group)
    }

    /// One step through the CLI over every program; records one sample
    /// per op kind.
    fn cli_cycle(&mut self, progs: &mut [ProgState], step: u64) {
        let w = self.args.workload;
        let mut this_step: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut walls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for p in progs.iter_mut() {
            let (edited, _) = self.edited_for_step(p, step);
            for &s in w.plan.iter().filter(|&&s| applies(s, p.program.name)) {
                if let Some((wall, cpu)) = self.cli_step(s, p, &edited) {
                    let value = match s {
                        Step::Online => (THREADS * w.online_epochs) as f64 / (wall / 1e3),
                        _ => cpu,
                    };
                    this_step.entry(s.label()).or_default().push(value);
                    walls.entry(s.label()).or_default().push(wall);
                }
            }
        }
        let dir = progs[0].dir.clone();
        if let Some(rate) = self.cli_rt(&dir) {
            this_step.entry("rt").or_default().push(rate);
        }
        // One sample per step and op kind: the mean over the step's
        // programs (and mixes), so a median over steps compares like with
        // like instead of jumping between programs of different sizes.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        for (key, values) in this_step {
            self.samples.entry(key).or_default().push(mean(&values));
            self.raw.entry(key).or_default().extend(values);
        }
        let step_wall = walls.values().flatten().sum();
        self.samples.entry("step").or_default().push(step_wall);
        self.raw.entry("step").or_default().push(step_wall);
        for (key, values) in walls {
            self.walls.entry(key).or_default().push(mean(&values));
        }
    }

    /// `step` on `p` as an op spec: the file operands of the CLI
    /// invocation, and of its in-process twin `perfbench --op`.
    fn op_spec(&self, step: Step, p: &ProgState) -> OpSpec {
        let w = self.args.workload;
        let [a, b] = w.merge_inputs();
        let files: &[&str] = match step {
            Step::Train(0) => &["a.pgmp"],
            Step::Train(_) => &["b.pgmp"],
            Step::Merge => &[a, b, "m.pgmp"],
            Step::Run => &[w.run_profile()],
            Step::Rebase => &["base.pgmp", "base.scm", "r.pgmp"],
            Step::Recompile => &["r.pgmp", "base.session", "tmp.session"],
            Step::Online => &[],
        };
        self.op_spec_of(step.label(), p, files)
    }

    fn op_spec_of(&self, kind: &str, p: &ProgState, files: &[&str]) -> OpSpec {
        OpSpec {
            kind: kind.into(),
            dir: p.dir.clone(),
            libs: p.program.libs.into(),
            files: files.iter().map(|f| (*f).to_owned()).collect(),
            epochs: self.args.workload.online_epochs,
        }
    }

    /// Runs `spec` in a fresh `perfbench --op` process and checks the
    /// line it printed against `expect`. Returns the op's in-process time
    /// (ms) and, when traced, its trace dump.
    fn child_op(&mut self, spec: &OpSpec, trace: bool, expect: &str) -> Option<(f64, String)> {
        let args = spec.to_args(trace);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let inv = self.bins.run("perfbench", &args, Path::new("."));
        let mut dump = String::new();
        let (mut ms, mut value) = (None, Err("no result".to_owned()));
        for line in inv.stdout.lines() {
            if let Some(v) = line.strip_prefix("ms ") {
                ms = v.parse::<f64>().ok();
            } else if let Some(v) = line.strip_prefix("value ") {
                value = Ok(v.to_owned());
            } else if let Some(e) = line.strip_prefix("error ") {
                value = Err(e.to_owned());
            } else {
                dump.push_str(line);
                dump.push('\n');
            }
        }
        let ok = inv.ok && ms.is_some() && value.as_deref() == Ok(expect);
        let what = format!("in-process {} ({})", spec.kind, spec.dir.display());
        self.check(&what, ok, || {
            format!("{value:?}, expected {expect:?}; {}", inv.stderr.trim())
        });
        ok.then(|| (ms.unwrap_or(0.0), dump))
    }

    /// One traced step: every op in process untraced, in process traced,
    /// and through the CLI, each in a fresh process.
    fn traced_cycle(&mut self, progs: &mut [ProgState], step: u64, t: &mut Traced) {
        let w = self.args.workload;
        for p in progs.iter_mut() {
            let (edited, group) = self.edited_for_step(p, step);
            for &s in w.plan.iter().filter(|&&s| applies(s, p.program.name)) {
                let mix = match s {
                    Step::Train(mix) => mix,
                    _ => 0,
                };
                if let Err(e) = p.write(edited.source(mix)) {
                    self.check("write input", false, || e.to_string());
                    continue;
                }
                // What `perfbench --op` prints last.
                let expect = match s {
                    Step::Train(mix) => edited.expected(mix),
                    Step::Run | Step::Recompile => edited.expected(0),
                    Step::Online => (THREADS * w.online_epochs).to_string(),
                    Step::Merge => "ok".to_owned(),
                    Step::Rebase => format!("rebased {FILE}"),
                };
                let spec = self.op_spec(s, p);
                let untraced = self.child_op(&spec, false, &expect);
                let offset = t.tr.now();
                let traced = self.child_op(&spec, true, &expect);
                let cli = self.cli_step(s, p, &edited).map(|(wall, _)| wall);
                if let Some((ms, dump)) = &traced {
                    if let Err(e) = t.tr.absorb(dump, &group, step, offset) {
                        self.check("trace dump", false, || e);
                    }
                    if let (Some((base, _)), Some(cli)) = (&untraced, cli) {
                        t.traced_ms += ms;
                        t.untraced_ms += base;
                        t.cli_minus_inproc.push(cli - base);
                    }
                }
                match s {
                    Step::Train(_) => {
                        let plain = OpSpec {
                            kind: "train_plain".into(),
                            files: Vec::new(),
                            ..spec
                        };
                        let offset = t.tr.now();
                        if let Some((_, dump)) = self.child_op(&plain, true, &expect) {
                            if let Err(e) = t.tr.absorb(&dump, &group, step, offset) {
                                self.check("trace dump", false, || e);
                            }
                        }
                    }
                    Step::Run => {
                        if let Some(plain) = cli {
                            let args = ["--load", w.run_profile(), "--trace", "trace.jsonl"];
                            let inv = self.pgmp_run(p, &args);
                            let ok = inv.last_line() == edited.expected(0);
                            self.check_cli("run --trace", &inv, ok);
                            if ok {
                                t.run_cli.push(plain);
                                t.run_cli_traced.push(inv.wall_ms);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let rt = self.op_spec_of("rt", &progs[0], &[]);
        let untraced = self.child_op(&rt, false, "ok");
        let offset = t.tr.now();
        let traced = self.child_op(&rt, true, "ok");
        if let (Some((base, _)), Some((ms, dump))) = (untraced, traced) {
            t.traced_ms += ms;
            t.untraced_ms += base;
            if let Err(e) = t.tr.absorb(&dump, "rt", step, offset) {
                self.check("trace dump", false, || e);
            }
        }
        let dir = progs[0].dir.clone();
        self.cli_rt(&dir);
    }
}

/// State of a traced run.
struct Traced {
    tr: Tracer,
    traced_ms: f64,
    untraced_ms: f64,
    cli_minus_inproc: Vec<f64>,
    run_cli: Vec<f64>,
    run_cli_traced: Vec<f64>,
}

/// Per-layer metrics from the spans of the traced run.
fn layer_metrics(t: &Traced) -> (BTreeMap<&'static str, f64>, String) {
    let tr = &t.tr;
    let costs = tr.self_costs();
    // step -> key -> value, where key is a layer or `layer.name`.
    let mut per_step: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    let mut allocs_by_layer: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    let mut eval_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut vm_allocs = 0.0;
    let (mut covered, mut total) = (0.0, 0.0);
    // group -> layer -> self ms; group -> steps seen
    let mut report: BTreeMap<String, BTreeMap<&str, f64>> = BTreeMap::new();
    let mut group_steps: BTreeMap<String, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for (s, &(self_ns, self_allocs)) in tr.spans.iter().zip(&costs) {
        let op = &tr.ops[s.op as usize];
        if s.layer == BENCH {
            total -= s.ns() as f64;
            continue;
        }
        group_steps
            .entry(op.group.clone())
            .or_default()
            .insert(op.step);
        if s.parent.is_none() {
            total += s.ns() as f64;
            *report
                .entry(op.group.clone())
                .or_default()
                .entry("op total")
                .or_default() += s.ns() as f64 / 1e6;
            continue;
        }
        covered += self_ns as f64;
        let ns = self_ns as f64;
        let step = per_step.entry(op.step).or_default();
        *step.entry(s.layer.to_owned()).or_default() += ns;
        *step.entry(format!("{}.{}", s.layer, s.name)).or_default() += ns;
        *allocs_by_layer
            .entry(op.step)
            .or_default()
            .entry(s.layer)
            .or_default() += self_allocs as f64;
        *report
            .entry(op.group.clone())
            .or_default()
            .entry(s.layer)
            .or_default() += ns / 1e6;
        if s.layer == "eval" {
            *eval_ns.entry(op.kind).or_default() += ns;
        }
        if s.layer == "bytecode" && s.name == "vm" {
            vm_allocs += self_allocs as f64;
        }
    }
    let steps: Vec<u64> = per_step.keys().copied().collect();
    let ms_of = |key: &str| {
        let v: Vec<f64> = steps
            .iter()
            .map(|st| per_step[st].get(key).copied().unwrap_or(0.0) / 1e6)
            .collect();
        median(&v)
    };
    let count_of = |key: &'static str| {
        let v: Vec<f64> = steps
            .iter()
            .map(|st| tr.counts.get(&(*st, key)).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let allocs_of = |layer: &str| {
        let v: Vec<f64> = steps
            .iter()
            .map(|st| {
                allocs_by_layer
                    .get(st)
                    .and_then(|m| m.get(layer))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        median(&v)
    };
    let sum_count = |key: &str| -> f64 {
        tr.counts
            .iter()
            .filter(|((_, k), _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("reader.ms", ms_of("reader"));
    m.insert("expander.ms", ms_of("expander"));
    m.insert("eval.ms", ms_of("eval"));
    m.insert("bytecode.compile_ms", ms_of("bytecode.compile"));
    m.insert("bytecode.lower_ms", ms_of("bytecode.lower"));
    m.insert("bytecode.vm_ms", ms_of("bytecode.vm"));
    m.insert("profiler.store_ms", ms_of("profiler.store"));
    m.insert("profiler.load_ms", ms_of("profiler.load"));
    m.insert("profiler.merge_ms", ms_of("profiler.merge"));
    m.insert("profiler.rebase_ms", ms_of("profiler.rebase"));
    m.insert("core.session_load_ms", ms_of("core.session_load"));
    m.insert("core.session_save_ms", ms_of("core.session_save"));
    m.insert("core.incr_compile_ms", ms_of("core.incr_compile"));
    m.insert("adaptive.collect_ms", ms_of("adaptive.collect"));
    m.insert("adaptive.tick_ms", ms_of("adaptive.tick"));
    m.insert("case_studies.install_ms", ms_of("case_studies.install"));
    for key in [
        "reader.forms",
        "reader.bytes",
        "expander.forms",
        "expander.profile_queries",
        "expander.core_nodes",
        "bytecode.blocks",
        "bytecode.ops",
        "bytecode.flat_ops",
        "bytecode.dispatches",
        "bytecode.calls",
        "profiler.hits",
        "profiler.store_bytes",
        "profiler.load_bytes",
        "core.session_bytes",
        "core.reexpanded",
        "adaptive.hits",
        "adaptive.reoptimizations",
    ] {
        m.insert(key, count_of(key));
    }
    m.insert("expander.allocs", allocs_of("expander"));
    m.insert("eval.allocs", allocs_of("eval"));
    m.insert(
        "bytecode.allocs_per_call",
        ratio(vm_allocs, sum_count("bytecode.calls")),
    );
    let eval_train = eval_ns.get("train").copied().unwrap_or(0.0);
    let eval_plain = eval_ns.get("train_plain").copied().unwrap_or(0.0);
    m.insert(
        "profiler.ns_per_hit",
        ratio(eval_train - eval_plain, sum_count("profiler.hits")),
    );
    m.insert(
        "profiler.rebase_retained",
        ratio(
            sum_count("profiler.rebase_retained_weight"),
            sum_count("profiler.rebase_old_weight"),
        ),
    );
    m.insert(
        "core.reuse_ratio",
        ratio(
            sum_count("core.forms_restored"),
            sum_count("core.forms_total"),
        ),
    );
    m.insert(
        "rt.ns_per_hit",
        ratio(sum_count("rt.thread_ns"), sum_count("rt.hits")),
    );
    m.insert("rt.lost_hits", sum_count("rt.lost_hits"));
    m.insert(
        "observe.trace_overhead",
        ratio(median(&t.run_cli_traced), median(&t.run_cli)),
    );
    m.insert("trace.coverage", ratio(covered, total));
    m.insert("trace.overhead", ratio(t.traced_ms, t.untraced_ms));
    m.insert("cli.overhead_ms", median(&t.cli_minus_inproc));

    let layers = [
        "reader",
        "expander",
        "eval",
        "bytecode",
        "profiler",
        "core",
        "adaptive",
        "rt",
        "case_studies",
        "other",
        "op total",
    ];
    let mut text = format!("{:<16}", "self ms/step");
    for l in layers {
        let _ = write!(text, "{l:>13}");
    }
    text.push('\n');
    for (group, by_layer) in &report {
        let n = group_steps.get(group).map_or(1, |s| s.len().max(1)) as f64;
        let _ = write!(text, "{group:<16}");
        for l in layers {
            let _ = write!(
                text,
                "{:>13.3}",
                by_layer.get(l).copied().unwrap_or(0.0) / n
            );
        }
        text.push('\n');
    }
    (m, text)
}

/// Runs the benchmark and prints the result line. Returns an error, and
/// prints nothing on stdout, when the run could not be set up.
pub fn run(args: Args) -> Result<(), String> {
    let bins = Bins::locate()?;
    let w = args.workload;
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, bins, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: Args, bins: Bins, work: &Path) -> Result<(), String> {
    let trace = args.trace;
    let seconds = args.seconds;
    let mut b = Bench {
        args,
        bins,
        attempted: 0,
        failed: 0,
        samples: BTreeMap::new(),
        raw: BTreeMap::new(),
        walls: BTreeMap::new(),
    };
    let w = b.args.workload;
    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut progs = Vec::new();
    for rep in 0..repeats {
        let dir = work.join(format!("setup{rep}"));
        let start = cpu_seconds();
        progs = b.setup(&dir)?;
        setup_s.push(cpu_seconds() - start);
        if rep + 1 < repeats {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // Warm-up: one full step, untimed, so later steps find every binary
    // and input in the page cache.
    b.cli_cycle(&mut progs, 0);
    b.samples.clear();
    b.raw.clear();
    b.walls.clear();

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let start = Instant::now();
    let mut steps = 0u64;
    let mut traced = Traced {
        tr: Tracer::new(true),
        traced_ms: 0.0,
        untraced_ms: 0.0,
        cli_minus_inproc: Vec::new(),
        run_cli: Vec::new(),
        run_cli_traced: Vec::new(),
    };
    while Instant::now() < deadline {
        if trace {
            b.traced_cycle(&mut progs, steps, &mut traced);
        } else {
            b.cli_cycle(&mut progs, steps);
        }
        steps += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: workload {} seed {}: {steps} step(s) in {elapsed:.1} s, {} op(s), {} failed",
        w.name, b.args.seed, b.attempted, b.failed
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if trace {
        let (m, report) = layer_metrics(&traced);
        eprint!("{report}");
        let coverage = m["trace.coverage"];
        let in_bound = (COVERAGE_BOUND.0..=COVERAGE_BOUND.1).contains(&coverage);
        b.check("trace.coverage within bound", in_bound, || {
            format!("{coverage} outside {COVERAGE_BOUND:?}")
        });
        let out = PathBuf::from(".bench_out");
        let path = out.join(format!("trace-{}-seed{}.jsonl", w.name, b.args.seed));
        match std::fs::create_dir_all(&out)
            .and_then(|_| std::fs::write(&path, traced.tr.to_jsonl()))
        {
            Ok(()) => eprintln!(
                "perfbench: {} span(s) written to {}",
                traced.tr.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, m[name]));
        }
    } else {
        let s = |k: &str| b.samples.get(k).map(Vec::as_slice).unwrap_or(&[]);
        let ok_rate = (b.attempted - b.failed) as f64 / b.attempted.max(1) as f64;
        let values = [
            median(&setup_s),
            ok_rate,
            children_peak_rss_mb(),
            median(s("train")),
            median(s("merge")),
            median(s("run")),
            median(s("rebase")),
            median(s("recompile")),
            median(s("step")),
            median(s("online")),
            median(s("rt")),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
        eprintln!(
            "{:<20}{:>16}  {:<6}{:>8}{:>14}",
            "metric", "value", "unit", "n", "wall ms p50"
        );
        let key_of = |name: &str| name.split('_').next().unwrap_or("").to_owned();
        let n_of = |name: &str| match name {
            "setup_s" => setup_s.len(),
            "ok_rate" | "peak_rss_mb" => b.attempted as usize,
            _ => b.raw.get(key_of(name).as_str()).map_or(0, Vec::len),
        };
        for (name, unit, v) in &metrics {
            let wall = match b.walls.get(key_of(name).as_str()) {
                Some(w) if name.ends_with("_ms_p50") => format!("{:.4}", median(w)),
                _ => String::new(),
            };
            eprintln!("{name:<20}{v:>16.4}  {unit:<6}{:>8}{wall:>14}", n_of(name));
        }
        eprintln!(
            "{:<20}{:>16.4}  {:<6}{:>8}",
            "fail_rate",
            1.0 - ok_rate,
            "ratio",
            b.attempted
        );
        for key in ["train", "run"] {
            let v = b.raw.get(key).map(Vec::as_slice).unwrap_or(&[]);
            if v.len() >= P90_MIN_SAMPLES {
                eprintln!(
                    "{:<20}{:>16.4}  {:<6}{:>8}",
                    format!("{key}_ms_p90"),
                    quantile(v, 0.9),
                    "ms",
                    v.len()
                );
            } else {
                eprintln!(
                    "{key}_ms_p90: not reported, {} sample(s) < {P90_MIN_SAMPLES}",
                    v.len()
                );
            }
        }
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        b.failed == 0,
        b.attempted.max(1),
        b.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}
