#!/usr/bin/env bash
# Builds the release `pinpoint` binary and `pinbench`, then runs pinbench
# with the arguments given (see README.md). Run from the repository root:
#
#   bash pinbench/run.sh --workload cold_sparse --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin pinpoint 1>&2
cargo build --release --offline --quiet --manifest-path pinbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/pinbench" "$@"
