#!/bin/bash
# Tier-1 gate, and the whole of CI (.github/workflows/ci.yml runs only
# this script). In order:
#   - release build, clippy -D warnings, `cargo test --workspace`
#     (including the BENCH_*.json schema check), the serving benchmark's
#     unit tests;
#   - determinism, memoization and batch-major kernel proptests under a
#     forced 2-worker pool;
#   - liger-lint over the rendered datagen corpus, plain and --canon, and
#     over a source nested past MiniLang's budget (must exit 2);
#   - liger-serve smoke test, semantic code-search smoke across a
#     restart, and canonicalizer clone-detection smoke;
#   - profiled-quickstart trace validation;
#   - artifact-store red-green gate (warm quickstart: zero misses);
#   - the in-bench gates of the serve, obs, kernels, encode, index and
#     store throughput benches, and the paper report at tiny scale.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace matters: a bare root build skips member binaries, and the
# lint gate and smoke test below invoke liger-lint / render-templates /
# liger-serve straight from target/release.
cargo build --release --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
# Build the serving benchmark (benchmark/) against this workspace and
# run its unit tests, from a copy that leaves benchmark/Cargo.lock as is.
scripts/bench_test.sh
LIGER_THREADS=2 cargo test -q --test autodiff_properties parallel_training_is_bitwise_deterministic
LIGER_THREADS=2 cargo test -q --test autodiff_properties cached_training_is_bitwise_identical
# Batch-major fused-GEMM equivalence proptests, with the worker pool
# forced to 2 so the batched path runs under the same thread
# configuration the determinism contract is stated for.
LIGER_THREADS=2 cargo test -q --test kernel_properties

# ---- liger-lint over the shipped datagen corpus -------------------------
# Every shipped template must be free of diagnostics — warnings included.
lint_dir=$(mktemp -d)
trap 'rm -rf "$lint_dir"' EXIT
target/release/render-templates "$lint_dir"
target/release/liger-lint --deny-warnings "$lint_dir"/*.ml
echo "liger-lint: shipped datagen corpus is diagnostic-free"
# The same sweep through the canonicalizer: the rewrite fixpoint must be
# idempotent on every template (the binary exits nonzero otherwise) and
# every canonical form must itself be diagnostic-free.
target/release/liger-lint --canon --deny-warnings --quiet "$lint_dir"/*.ml | grep -c '^canon ' \
    | xargs -I{} echo "liger-lint --canon: {} canonical forms, idempotent and diagnostic-free"
# A source nested far past MiniLang's nesting budget must be a parse error
# (exit 2), never a stack overflow (a signal, exit >= 128).
deep_ml="$lint_dir/deep.ml"
{
    printf 'fn f(x: int) -> int { return '
    head -c 100000 /dev/zero | tr '\0' '('
    printf 'x'
    head -c 100000 /dev/zero | tr '\0' ')'
    printf '; }\n'
} > "$deep_ml"
deep_status=0
target/release/liger-lint "$deep_ml" 2> "$lint_dir/deep.err" || deep_status=$?
if [ "$deep_status" -ne 2 ] || ! grep -q 'parse error' "$lint_dir/deep.err"; then
    echo "liger-lint on 100000 nested parentheses: exit $deep_status, want 2 with a parse error" >&2
    cat "$lint_dir/deep.err" >&2
    exit 1
fi
echo "liger-lint: 100000 nested parentheses are a parse error (exit 2)"
rm -rf "$lint_dir"
trap - EXIT

# ---- liger-serve smoke test ---------------------------------------------
serve_bin=target/release/liger-serve
serve_log=$(mktemp)
"$serve_bin" --demo --addr 127.0.0.1:0 --threads 2 > "$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT

# The demo trains a small model first; wait for the listening line.
addr=""
for _ in $(seq 1 600); do
    addr=$(sed -n 's/^liger-serve listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: liger-serve exited before listening" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "error: liger-serve never started listening" >&2
    cat "$serve_log" >&2
    exit 1
fi
echo "liger-serve smoke test on $addr"

"$serve_bin" query "$addr" '{"op":"ping"}'
"$serve_bin" query "$addr" \
    '{"op":"name","source":"fn addOne(x: int) -> int { return x + 1; }"}'
lint=$("$serve_bin" query "$addr" \
    '{"op":"lint","source":"fn half(x: int) -> int { return x / 0; }"}')
echo "$lint"
case "$lint" in
    *'"fatal":true'*'division-by-zero'*) ;;
    *) echo "error: lint op missed the division by zero: $lint" >&2; exit 1 ;;
esac
stats=$("$serve_bin" query "$addr" '{"op":"stats"}')
echo "$stats"
# Admin verbs (ping/stats) bypass the queue; only the inference counts.
case "$stats" in
    *'"requests":1'*) ;;
    *) echo "error: STATS did not count the inference request: $stats" >&2; exit 1 ;;
esac

"$serve_bin" query "$addr" '{"op":"shutdown"}'
wait "$serve_pid"
trap 'rm -f "$serve_log"' EXIT
grep -q 'stopped after' "$serve_log"
echo "liger-serve smoke test passed"

# ---- semantic code-search smoke gate ------------------------------------
# Index the rendered datagen corpus through a demo server with a
# persistent index, assert every template finds itself at rank 1, then
# restart the server on the saved LGRI1 file and assert a second query
# round still does (save -> restart -> load must not change results).
idx_dir=$(mktemp -d)
trap 'kill "${idx_pid:-0}" 2>/dev/null || true; rm -rf "$idx_dir"; rm -f "$serve_log"' EXIT
target/release/render-templates "$idx_dir" >/dev/null
start_index_server() {
    "$serve_bin" --demo --addr 127.0.0.1:0 --threads 2 \
        --index-path "$idx_dir/corpus.lgri" > "$idx_dir/serve.log" 2>&1 &
    idx_pid=$!
    idx_addr=""
    for _ in $(seq 1 600); do
        idx_addr=$(sed -n 's/^liger-serve listening on //p' "$idx_dir/serve.log")
        [ -n "$idx_addr" ] && break
        if ! kill -0 "$idx_pid" 2>/dev/null; then
            echo "error: index smoke server exited before listening" >&2
            cat "$idx_dir/serve.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$idx_addr" ]; then
        echo "error: index smoke server never started listening" >&2
        exit 1
    fi
}
self_query_round() {
    local round=$1
    while read -r key _outcome file; do
        # awk reads to EOF (head -1 would close the pipe after the exact
        # tier's first line and SIGPIPE-panic the client under pipefail)
        rank1=$("$serve_bin" search "$idx_addr" "$file" --k 1 | awk 'NR==1{print $2}')
        if [ "$rank1" != "$key" ]; then
            echo "error: $round: $file expected rank-1 key $key, got ${rank1:-nothing}" >&2
            exit 1
        fi
    done < "$idx_dir/keys.txt"
}
start_index_server
"$serve_bin" index "$idx_addr" "$idx_dir"/*.ml > "$idx_dir/keys.txt"
distinct=$(awk '{print $1}' "$idx_dir/keys.txt" | sort -u | wc -l)
self_query_round "first round"
"$serve_bin" query "$idx_addr" '{"op":"shutdown"}' >/dev/null
wait "$idx_pid"
[ -f "$idx_dir/corpus.lgri" ] || { echo "error: index was not persisted on shutdown" >&2; exit 1; }

start_index_server
entries=$("$serve_bin" query "$idx_addr" '{"op":"stats"}' \
    | sed -n 's/.*"index":{"entries":\([0-9]*\).*/\1/p')
if [ "$entries" != "$distinct" ]; then
    echo "error: reloaded index has $entries entries, expected $distinct" >&2
    exit 1
fi
self_query_round "after reload"

# ---- canonicalizer clone-detection smoke --------------------------------
# Two syntactic variants of one summation routine (for vs while, fresh
# names, compound vs plain increments) must dedup onto one index key
# under canon, and a canon search must surface the stored clone through
# the canonical-exact tier; a plain search must not.
cat > "$idx_dir/canon_for.ml" <<'EOF'
fn sumTo(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i += 1) { s += i; }
    return s;
}
EOF
cat > "$idx_dir/canon_while.ml" <<'EOF'
fn total(limit: int) -> int {
    let acc: int = 0;
    let j: int = 0;
    while (j < limit) { acc = acc + j; j = j + 1; }
    return acc;
}
EOF
# One request at a time: pipelined, the two variants route to different
# shards and either may be inserted first.
for variant in canon_for canon_while; do
    "$serve_bin" index "$idx_addr" --canon "$idx_dir/$variant.ml" >> "$idx_dir/canon.txt"
done
cat "$idx_dir/canon.txt"
canon_key=$(awk 'NR==1 {print $1}' "$idx_dir/canon.txt")
canon_second=$(awk 'NR==2 {print $1, $2}' "$idx_dir/canon.txt")
if [ "$canon_second" != "$canon_key unchanged" ]; then
    echo "error: canon variants did not dedup onto one key" >&2
    exit 1
fi
exact=$("$serve_bin" search "$idx_addr" "$idx_dir/canon_while.ml" --canon --k 1 \
    | sed -n 's/^exact //p')
if [ "$exact" != "$canon_key" ]; then
    echo "error: canonical-exact tier missed the stored clone (got ${exact:-nothing}, want $canon_key)" >&2
    exit 1
fi
if "$serve_bin" search "$idx_addr" "$idx_dir/canon_while.ml" --k 1 | grep -q '^exact '; then
    echo "error: a plain search must not report a canonical-exact hit" >&2
    exit 1
fi
echo "canonicalizer clone-detection smoke passed (variants dedup to $canon_key)"

"$serve_bin" query "$idx_addr" '{"op":"shutdown"}' >/dev/null
wait "$idx_pid"
rm -rf "$idx_dir"
trap 'rm -f "$serve_log"' EXIT
echo "semantic code-search smoke gate passed ($distinct distinct programs, rank-1 self-hits across restart)"

# ---- profiled quickstart + trace validation -----------------------------
# A profiled run must produce a chrome-trace file the in-tree JSON codec
# accepts, with the root span covering >=90% of the recorded wall time.
rm -f quickstart.trace.json
LIGER_PROFILE=1 cargo run --release --example quickstart -- --retrain
target/release/trace-validate --min-coverage 0.9 quickstart.trace.json
echo "profiled quickstart trace validated"

# ---- serve load-generator smoke gate ------------------------------------
# A short high-concurrency run of the epoll front end: 2 load-generator
# processes x 128 connections against a sharded server, asserting
# in-bench that every connection is accepted, no in-flight request is
# dropped, every BUSY/SHED reply reconciles against the server's own
# rejected/shed counters, and steady-state framing allocates nothing.
LIGER_THREADS=2 cargo bench -p bench --bench throughput_serve -- --smoke

# ---- observability overhead budget --------------------------------------
# Asserts in-bench that disabled span tracing costs <2% of encoder time.
cargo bench -p bench --bench throughput_obs

# ---- fused kernel throughput + SIMD floor -------------------------------
# Asserts in-bench that gemm_batch clears the autovectorization GFLOP/s
# floor.
cargo bench -p bench --bench throughput_kernels

# ---- encoder throughput and allocation pressure -------------------------
# Asserts in-bench that the tape-free engine stays bitwise identical to
# the tape, runs well ahead of the memoized tape encoder in the same run,
# and that workspace reuse cuts allocations >= 3x.
cargo bench -p bench --bench throughput_encode

# ---- embedding-index smoke gate -----------------------------------------
# A scaled-down corpus still past a lowered ANN activation threshold;
# asserts in-bench that graph search hits recall@10 >= 0.95 against the
# exact ranking and stays under the 100ms p99 budget.
cargo bench -p bench --bench throughput_index -- --smoke

# ---- artifact-store red-green gate --------------------------------------
# Quickstart twice over one store: the cold run traces and embeds, the
# warm run must replay everything from the store — its `store:` line must
# report zero misses (no program re-traced, no embedding recomputed).
store_dir=$(mktemp -d)
trap 'rm -f "$serve_log"; rm -rf "$store_dir"' EXIT
cargo run --release --example quickstart -- --store-path "$store_dir" > /dev/null
warm_out=$(cargo run --release --example quickstart -- --store-path "$store_dir")
echo "$warm_out" | grep '^store: ' || { echo "error: quickstart printed no store line" >&2; exit 1; }
echo "$warm_out" | grep -q '^store: hits=[1-9][0-9]* misses=0 ' || {
    echo "error: warm quickstart re-traced or re-embedded (expected zero misses)" >&2
    echo "$warm_out" | grep '^store: ' >&2
    exit 1
}
echo "artifact-store red-green gate passed (warm quickstart: zero misses)"

# ---- artifact-store incremental-pipeline smoke gate ---------------------
# Cold-vs-warm corpus pass through the store; asserts in-bench that the
# warm pass misses zero programs, replays bitwise-identical samples, and
# clears the 3x warm-speedup floor.
cargo bench -p bench --bench throughput_store -- --smoke

# ---- paper claims at tiny scale -----------------------------------------
# Every table and figure of §6 at tiny scale; asserts in-bench that each
# distinct cell trains once, Table 1's filter totals add up, every score
# is in range, and the w/o-attention static share is uniform.
cargo bench -p bench --bench paper -- --smoke
