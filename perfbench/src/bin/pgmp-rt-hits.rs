//! `pgmp-rt-hits`: issues `THREADS × CALLS × HITS_PER_CALL` profiled
//! hits and prints `issued <n> counted <n> loop_ns <ns>` on one line.
//! Exits 1 when hits were lost.

use pgmp_perfbench::rt_load::hammer;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: pgmp-rt-hits");
        return ExitCode::from(2);
    }
    let out = hammer();
    println!(
        "issued {} counted {} loop_ns {}",
        out.issued, out.counted, out.loop_ns
    );
    if out.lost() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
