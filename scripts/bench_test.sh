#!/bin/bash
# Builds the serving benchmark (benchmark/, a separate package on path
# deps) and runs its unit tests against the current workspace, so a
# workspace API change it relies on (ModelBundle loading, the store's
# embedding codec) fails here.
#
# It builds from a copy under target/: cargo refreshes a package's
# Cargo.lock whenever a path dependency's own dependencies change, and
# the committed benchmark/Cargo.lock must stay byte-for-byte as it is.
# The copy keeps file times, so repeated runs build incrementally.
set -euo pipefail
cd "$(dirname "$0")/.."

src=target/benchmark-src
rm -rf "$src"
mkdir -p "$src/benchmark"
tar -cf - Cargo.toml Cargo.lock src tests examples crates | tar -xf - -C "$src"
tar -cf - -C benchmark Cargo.toml Cargo.lock src | tar -xf - -C "$src/benchmark"
CARGO_TARGET_DIR="$PWD/target/benchmark" \
    cargo test --offline -q --manifest-path "$src/benchmark/Cargo.toml"
