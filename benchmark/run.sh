#!/usr/bin/env bash
# Builds the `spark` CLI and the benchmark (release, offline) into one
# target directory, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload infer --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p spark-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
