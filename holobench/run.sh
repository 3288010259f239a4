#!/usr/bin/env bash
# Builds the program under test (the release holo-serve, from this
# checkout) and the benchmark, then runs one workload:
#
#   bash holobench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p holo-serve >&2
cargo build --release --offline --quiet --manifest-path holobench/Cargo.toml --workspace >&2
exec "$CARGO_TARGET_DIR/release/holobench" "$@"
