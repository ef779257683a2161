#!/bin/bash
# Runs every bench target and writes each one's report to BENCH_<name>.json
# at the repo root (throughput_<name> -> BENCH_<name>.json, paper ->
# BENCH_paper.json). Every bench builds its own report through
# bench::Report (one header + `results` rows + `summary`) and asserts its
# own floors, so a failing gate stops the script before that bench's
# file is replaced. Works from any cwd.
#
# Usage: scripts/bench_json.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for b in throughput_{parallel,encode,kernels,serve,analysis,obs,index,store} paper; do
    cargo bench -p bench --bench "$b" -- --json "$PWD/BENCH_${b#throughput_}.json"
done
