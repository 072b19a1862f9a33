#!/usr/bin/env bash
# Builds ttsolve, ttserve and the harness from the checkout's sources,
# then runs the harness with the given arguments, e.g.
#   bash e2ebench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh steady --workload cli-solve --runs 10
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates" ]]; then
    echo "e2ebench: $root holds no tt-repro workspace to build" >&2
    exit 2
fi
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tt-repro --bin ttsolve --bin ttserve >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@" --bin-dir "$CARGO_TARGET_DIR/release"
