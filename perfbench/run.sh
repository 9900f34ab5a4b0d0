#!/usr/bin/env bash
# Build dpbench and the benchmark from source (offline), then run the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload grid-1d --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. Both builds share one target directory ($CARGO_TARGET_DIR, or
# target/), so the benchmark finds the dpbench binary next to its own.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin dpbench >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# A child, not exec: the benchmark reads its children's resource usage,
# which exec would carry over from the builds.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
