//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! drives one workload and prints its result as one JSON line. See the
//! package's `README.md` for the workloads and metrics.
//!
//! `perfbench --op <kind> ...` runs one in-process op (see
//! `ops::OpSpec`) and prints its trace, time and result; the traced run
//! starts one such process per op, so each starts from a fresh heap as
//! the CLI does.

use pgmp_perfbench::bench::{self, Args};
use pgmp_perfbench::ops::{execute, OpSpec};
use pgmp_perfbench::trace::CountingAlloc;
use pgmp_perfbench::trace::Tracer;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    bench::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one op and prints its trace dump, then `ms <time>`, then
/// `value <last line>` or `error <message>`.
fn op_main(args: &[String]) -> Result<(), String> {
    let (spec, trace) = OpSpec::parse(args)?;
    let mut tr = Tracer::new(trace);
    let (result, ms) = execute(&mut tr, &spec);
    print!("{}", tr.dump());
    println!("ms {ms}");
    match result {
        Ok(v) => println!("value {v}"),
        Err(e) => println!("error {}", e.replace('\n', " ")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--op") {
        op_main(&args)
    } else {
        parse().and_then(bench::run)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
