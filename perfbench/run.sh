#!/usr/bin/env bash
# Builds `mbi` and the benchmark from this checkout, then runs one pass:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mbi-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --mbi "$CARGO_TARGET_DIR/release/mbi" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
