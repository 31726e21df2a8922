#!/usr/bin/env bash
# The repo benchmark's one command. Builds the two shipped binaries and
# the benchmark package (offline, release), then runs the benchmark with
# the arguments given:
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's form)
#   run.sh --seed <n> [--out <json>] [--smoke]                        the whole suite, both passes
#   run.sh --aa <k> [--seed <n>]                                      k end-to-end repeats, spreads gated
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds, so the benchmark finds the
# binaries next to itself. A relative CARGO_TARGET_DIR is the caller's,
# relative to the repository root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's chatter goes to standard error: the last line of standard
# output is the result.
cargo build --release --offline --bin softhw-serve --bin softhw-cli >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

export BENCH_NPROC="$(nproc)"
export BENCH_KERNEL="$(uname -sr)"
export BENCH_RUSTC="$(rustc --version)"
export BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

exec "$target/release/softhw-benchmark" "$@"
