#!/bin/bash
# Runs the eight throughput benches and writes each one's report to
# BENCH_<name>.json at the repo root. Every bench builds its own report
# through bench::Report (one header + `results` rows + `summary`) and
# asserts its own floors, so a failing gate stops the script before that
# bench's file is replaced. Works from any cwd.
#
# Usage: scripts/bench_json.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for b in parallel encode kernels serve analysis obs index store; do
    cargo bench -p bench --bench "throughput_$b" -- --json "$PWD/BENCH_$b.json"
done
