#!/bin/sh
# Builds the release CLIs and the benchmark from this checkout, then runs
#   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
# with the arguments given. Run it from the root of the repository.
set -eu
: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet -p pgmp-case-studies --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Not exec'd: the benchmark reads the peak memory of its own children,
# which must not include the compilers above.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
