#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs every workload ten times
# with ten seeds, twice, and holds both sets against the bounds in
# BENCHMARK.json (see "Repeat check" in README.md). Takes about
# 2 x 4 x 10 x run_seconds. Exits non-zero if any spread or drift
# exceeds its bound. Arguments are passed on: --workload <name> checks
# one workload, --seconds <s> shortens the runs.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat-check "$@"
