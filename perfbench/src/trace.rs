//! Spans around every call into a layer, kept in memory and written out
//! when the run ends, plus a counting global allocator whose counts are
//! attributed to the span open at the time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Allocation counts, one cache line per shard, so threads allocating at
/// once do not contend on one counter.
#[repr(align(64))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static ALLOCS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn count_alloc() {
    let shard = MY_SHARD.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) as usize % SHARDS);
        }
        s.get()
    });
    ALLOCS[shard].0.fetch_add(1, Ordering::Relaxed);
}

/// The system allocator, counting every allocation and reallocation.
/// Install it with `#[global_allocator]` in the binary that traces.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. Counting allocates
// nothing (the thread-local is const-initialized), and the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far, by every thread of the process.
pub fn allocs() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Layer of the benchmark's own bookkeeping (counting IR nodes, reading
/// results back). Its spans are excluded from op totals and coverage.
pub const BENCH: &str = "bench";
/// Layer of work on the path that has no public entry point of its own.
pub const OTHER: &str = "other";

#[derive(Clone, Debug)]
pub struct Span {
    /// Index into [`Tracer::ops`].
    pub op: u32,
    /// Index into [`Tracer::spans`] of the enclosing span; `None` for an
    /// op's root span.
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations while the span was open, its children's included.
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One operation: what one CLI invocation does, or a traced-only probe.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: &'static str,
    /// Row of the self-time report: the program, or the edit kind.
    pub group: String,
    pub step: u64,
}

/// Records spans when enabled; when disabled, only times ops.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub ops: Vec<Op>,
    pub spans: Vec<Span>,
    stack: Vec<(u32, u64)>,
    /// Counts recorded at layer boundaries, per step.
    pub counts: BTreeMap<(u64, &'static str), f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            ops: Vec::new(),
            spans: Vec::with_capacity(1 << 12),
            stack: Vec::with_capacity(16),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this tracer was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` as one op and returns its result with the op's wall
    /// time in ms, minus the time of its [`BENCH`] spans.
    pub fn op<T>(&mut self, kind: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = body(self);
            return (out, start.elapsed().as_secs_f64() * 1e3);
        }
        self.ops.push(Op {
            kind,
            group: String::new(),
            step: 0,
        });
        let root = self.spans.len();
        self.begin(kind, kind);
        let out = body(self);
        self.end();
        let bench_ns: u64 = self.spans[root + 1..]
            .iter()
            .filter(|s| s.layer == BENCH)
            .map(Span::ns)
            .sum();
        (out, (self.spans[root].ns() - bench_ns) as f64 / 1e6)
    }

    /// Opens a span of `layer` inside the current op.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.ops.len() as u32 - 1,
            parent: self.stack.last().map(|(i, _)| *i),
            layer,
            name,
            start_ns: self.now(),
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push((index, allocs()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let (index, allocs_at_begin) = self.stack.pop().expect("end matches a begin");
        let span = &mut self.spans[index as usize];
        span.end_ns = now;
        span.allocs = allocs() - allocs_at_begin;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    /// Adds `value` to the count `metric` of the current op's step.
    pub fn count(&mut self, metric: &'static str, value: f64) {
        if let Some(op) = self.ops.last() {
            *self.counts.entry((op.step, metric)).or_insert(0.0) += value;
        }
    }

    /// Self time (ns) and self allocations of every span: its own figures
    /// minus those of its direct children.
    pub fn self_costs(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.spans.iter().map(|s| (s.ns(), s.allocs)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &mut out[p as usize];
                parent.0 = parent.0.saturating_sub(s.ns());
                parent.1 = parent.1.saturating_sub(s.allocs);
            }
        }
        out
    }

    /// Ops, spans and counts as text lines, for [`Tracer::absorb`] in
    /// another process.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let _ = writeln!(out, "op {}", op.kind);
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span {} {parent} {} {} {} {} {}",
                s.op, s.layer, s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        for ((_, metric), value) in &self.counts {
            let _ = writeln!(out, "count {metric} {value}");
        }
        out
    }

    /// Appends a [`Tracer::dump`] made by a process started `offset_ns`
    /// after this tracer, labelling its ops with `group` and `step`.
    pub fn absorb(
        &mut self,
        dump: &str,
        group: &str,
        step: u64,
        offset_ns: u64,
    ) -> Result<(), String> {
        let (op_base, span_base) = (self.ops.len() as u32, self.spans.len() as u32);
        let bad = |line: &str| format!("malformed trace line {line:?}");
        for line in dump.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let num = |i: usize| {
                f.get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| bad(line))
            };
            match f[0] {
                "op" if f.len() == 2 => self.ops.push(Op {
                    kind: intern(f[1]),
                    group: group.to_owned(),
                    step,
                }),
                "span" if f.len() == 8 => self.spans.push(Span {
                    op: op_base + num(1)? as u32,
                    parent: match f[2] {
                        "-" => None,
                        _ => Some(span_base + num(2)? as u32),
                    },
                    layer: intern(f[3]),
                    name: intern(f[4]),
                    start_ns: offset_ns + num(5)?,
                    end_ns: offset_ns + num(6)?,
                    allocs: num(7)?,
                }),
                "count" if f.len() == 3 => {
                    let value: f64 = f[2].parse().map_err(|_| bad(line))?;
                    *self.counts.entry((step, intern(f[1]))).or_insert(0.0) += value;
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(())
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let op = &self.ops[s.op as usize];
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"op\":{},\"op_kind\":\"{}\",\"group\":\"{}\",\"step\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.op, op.kind, op.group, op.step, s.layer, s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}

/// A `'static` copy of `name`, made once per distinct name: span layers,
/// names and metrics form a small fixed vocabulary.
fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("intern table lock poisoned");
    if let Some(known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    names.insert(leaked);
    leaked
}
