#!/usr/bin/env bash
# Build the benchmark offline, run the timed pass and the traced pass
# over every workload, and stamp the result with what it ran on —
# commit, seed, cores, CPU model, LLC size and a fixed ALU calibration
# time (the last four are added by the binary itself) — so rows from
# different hosts are never compared blindly.
#
#   benchmark/run.sh [--seed N] [--repeat-check] [--out DIR] ...
#
# Run from anywhere; extra arguments go to `nvm-sysbench --all`.
set -euo pipefail
cd "$(dirname "$0")/.."

build_start=$(date +%s%N)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD -- 2>/dev/null; then
    commit="$commit-dirty"
fi

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/nvm-sysbench" --all --traced \
    --stamp "commit=$commit" --stamp "build_ms=$build_ms" "$@"
