//! Runs the release CLIs as child processes, one at a time.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The outcome of one invocation.
pub struct Invocation {
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    pub wall_ms: f64,
    /// User plus system time of the process, all threads.
    pub cpu_ms: f64,
}

impl Invocation {
    /// The last line printed on stdout.
    pub fn last_line(&self) -> &str {
        self.stdout.lines().last().unwrap_or("")
    }
}

/// Where the binaries are: next to the benchmark's own executable, since
/// both builds share one target directory.
pub struct Bins {
    dir: PathBuf,
}

impl Bins {
    pub fn locate() -> Result<Bins, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no directory")?
            .to_path_buf();
        for bin in ["pgmp-run", "pgmp-profile", "pgmp-rt-hits", "perfbench"] {
            if !dir.join(bin).is_file() {
                return Err(format!("{} not built", dir.join(bin).display()));
            }
        }
        Ok(Bins { dir })
    }

    /// Runs `bin args...` in `cwd` and waits for it; kills it, and
    /// fails the invocation, after [`TIMEOUT`].
    pub fn run(&self, bin: &str, args: &[&str], cwd: &Path) -> Invocation {
        let cpu_before = children_cpu_ms();
        let start = Instant::now();
        let child = Command::new(self.dir.join(bin))
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        let out = child.and_then(|child| {
            let pid = child.id() as i32;
            let (done, finished) = mpsc::channel::<()>();
            let watchdog = std::thread::spawn(move || {
                if finished.recv_timeout(TIMEOUT) == Err(RecvTimeoutError::Timeout) {
                    // SAFETY: `kill` takes plain integers and touches no
                    // memory of ours. `pid` names the child until it is
                    // reaped; only in the microseconds between the reap and
                    // `done` at the very edge of the timeout could it name
                    // a recycled process.
                    unsafe { kill(pid, SIGKILL) };
                }
            });
            let out = child.wait_with_output();
            let _ = done.send(());
            let _ = watchdog.join();
            out
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        // Children run one at a time, so the growth of the reaped
        // children's total is this one's.
        let cpu_ms = children_cpu_ms() - cpu_before;
        match out {
            Ok(o) => Invocation {
                ok: o.status.success(),
                stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&o.stderr).into_owned(),
                wall_ms,
                cpu_ms,
            },
            Err(e) => Invocation {
                ok: false,
                stdout: String::new(),
                stderr: format!("cannot run {bin}: {e}"),
                wall_ms,
                cpu_ms,
            },
        }
    }
}

/// Longest an invocation may take before it is killed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

const SIGKILL: i32 = 9;

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// Resource usage of this process (`RUSAGE_SELF`) or of its reaped
/// children (`RUSAGE_CHILDREN`) so far.
fn usage(who: i32) -> RUsage {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two timevals, then fourteen longs), and `usage` is a valid,
    // exclusively borrowed out-pointer for the duration of the call. On
    // failure `usage` stays zeroed.
    unsafe { getrusage(who, &mut usage) };
    usage
}

fn cpu_ms(u: &RUsage) -> f64 {
    (u.utime[0] + u.stime[0]) as f64 * 1e3 + (u.utime[1] + u.stime[1]) as f64 / 1e3
}

/// Peak resident set, in MB, of the largest child waited for so far.
pub fn children_peak_rss_mb() -> f64 {
    usage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// User plus system time, in ms, of every child waited for so far.
fn children_cpu_ms() -> f64 {
    cpu_ms(&usage(RUSAGE_CHILDREN))
}

/// User plus system time, in seconds, of this process and of every child
/// waited for so far.
pub fn cpu_seconds() -> f64 {
    (cpu_ms(&usage(RUSAGE_SELF)) + children_cpu_ms()) / 1e3
}
