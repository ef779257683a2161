//! Embedding-index throughput: insert rate and exact-vs-ANN search
//! latency on a 10k-entry corpus, with the DESIGN.md §2h quality gates
//! asserted in-bench:
//!
//! - ANN search p99 must stay **under 100 ms** at 10k entries, and
//! - ANN recall@10 against the exact brute-force ranking must be
//!   **≥ 0.95**.
//!
//! The report lands in `BENCH_index.json` (`--json PATH`):
//!
//! - `insert` row — insert rate into the persistent store,
//! - `exact` / `ann` rows — per-query latency percentiles at k=10 (the
//!   `ann` row carries the graph build time and `recall_at_10`),
//! - summary — the gates and the observed speedup.
//!
//! `--smoke` shrinks the corpus (still past the ANN activation
//! threshold) for the CI gate.

use std::time::Instant;

use bench::{Json, Report};
use index::{Index, IndexConfig, SearchOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const DIM: usize = 24;
const K: usize = 10;
const P99_BUDGET_US: u64 = 100_000;
const RECALL_GATE: f64 = 0.95;

fn random_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct SearchRun {
    p50_us: u64,
    p99_us: u64,
    total_secs: f64,
}

/// Times `queries` top-k searches through the [`Index`] front end and
/// returns latency percentiles. The caller controls whether the graph
/// path is active via the index's own `ann_threshold`.
fn timed_searches(
    idx: &mut Index,
    queries: &[Vec<f32>],
    expect_ann: bool,
) -> (SearchRun, Vec<Vec<u64>>) {
    let opts = SearchOptions { k: K, ..SearchOptions::default() };
    let mut lat_us: Vec<u64> = Vec::with_capacity(queries.len());
    let mut rankings: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for query in queries {
        let t0 = Instant::now();
        let result = idx.search(query, &[], &opts).expect("search");
        lat_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(result.ann_used, expect_ann, "wrong search path was taken");
        rankings.push(result.hits.iter().map(|h| h.key).collect());
    }
    let total_secs = start.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    (
        SearchRun {
            p50_us: percentile(&lat_us, 0.50),
            p99_us: percentile(&lat_us, 0.99),
            total_secs,
        },
        rankings,
    )
}

fn main() {
    let mut report = Report::new(
        "throughput_index",
        "persistent embedding index (LGRI1): random 24-dim vectors; insert rate, exact \
         brute-force vs HNSW-graph top-10 search latency (p99 < 100ms asserted in-bench), ANN \
         recall@10 vs exact (>= 0.95 asserted in-bench)",
        bench::Args::parse(),
    );
    let smoke = report.smoke();
    // Smoke keeps the corpus past a (lowered) activation threshold so
    // the graph path is still exercised, just on a tenth of the data.
    let (entries, queries_n, threshold) =
        if smoke { (1_500, 16, 1_000) } else { (10_000, 64, 10_000) };

    let mut rng = StdRng::seed_from_u64(0x51);
    let corpus: Vec<Vec<f32>> = (0..entries).map(|_| random_vector(&mut rng, DIM)).collect();
    let queries: Vec<Vec<f32>> = (0..queries_n).map(|_| random_vector(&mut rng, DIM)).collect();

    // ---- insert rate ----------------------------------------------------
    let config = IndexConfig { ann_threshold: threshold, ..IndexConfig::default() };
    let mut ann_idx = Index::with_config(DIM, "bench/fp", config);
    let start = Instant::now();
    for (key, v) in corpus.iter().enumerate() {
        ann_idx.insert(key as u64, v, &[]).expect("insert");
    }
    let insert_secs = start.elapsed().as_secs_f64();
    report.row(
        "insert",
        vec![
            ("entries", Json::num(entries)),
            ("dim", Json::num(DIM)),
            ("seconds", Json::Num(insert_secs)),
            ("inserts_per_sec", Json::Num(entries as f64 / insert_secs)),
            ("bytes", Json::num(ann_idx.stats().bytes)),
        ],
    );
    let search_fields = |run: &SearchRun| {
        vec![
            ("entries", Json::num(entries)),
            ("queries", Json::num(queries_n)),
            ("k", Json::num(K)),
            ("seconds", Json::Num(run.total_secs)),
            ("p50_us", Json::Num(run.p50_us as f64)),
            ("p99_us", Json::Num(run.p99_us as f64)),
        ]
    };

    // ---- exact search (brute force over the same corpus) ----------------
    let mut exact_idx = Index::with_config(
        DIM,
        "bench/fp",
        IndexConfig { ann_threshold: usize::MAX, ..config },
    );
    for (key, v) in corpus.iter().enumerate() {
        exact_idx.insert(key as u64, v, &[]).expect("insert");
    }
    let (exact_run, exact_rankings) = timed_searches(&mut exact_idx, &queries, false);
    report.row("exact", search_fields(&exact_run));

    // ---- ANN search (graph active past the threshold) -------------------
    assert!(ann_idx.ann_active(), "corpus must cross the ANN activation threshold");
    // Warm query builds the graph outside the timed region — construction
    // is a one-off cost amortized over the index lifetime, not a per-query
    // cost; the insert phase above owns it conceptually.
    let build_start = Instant::now();
    ann_idx
        .search(&queries[0], &[], &SearchOptions { k: K, ..SearchOptions::default() })
        .expect("graph build");
    let build_secs = build_start.elapsed().as_secs_f64();
    let (ann_run, ann_rankings) = timed_searches(&mut ann_idx, &queries, true);

    let mut overlap = 0usize;
    for (exact, ann) in exact_rankings.iter().zip(&ann_rankings) {
        overlap += ann.iter().filter(|key| exact.contains(key)).count();
    }
    let recall = overlap as f64 / (queries.len() * K) as f64;
    let mut ann_fields = search_fields(&ann_run);
    ann_fields.push(("build_seconds", Json::Num(build_secs)));
    ann_fields.push(("recall_at_10", Json::Num(recall)));
    report.row("ann", ann_fields);

    // ---- the gates ------------------------------------------------------
    assert!(
        ann_run.p99_us < P99_BUDGET_US,
        "ANN search p99 blew the 100ms budget at {entries} entries: {} µs",
        ann_run.p99_us
    );
    assert!(
        recall >= RECALL_GATE,
        "ANN recall@10 fell below the {RECALL_GATE} gate: {recall:.4}"
    );
    let speedup = exact_run.p50_us as f64 / (ann_run.p50_us.max(1)) as f64;
    report.summary("ann_p99_us", Json::Num(ann_run.p99_us as f64));
    report.summary("p99_budget_us", Json::Num(P99_BUDGET_US as f64));
    report.summary("recall_at_10", Json::Num(recall));
    report.summary("recall_gate", Json::Num(RECALL_GATE));
    report.summary("ann_speedup_p50", Json::Num(speedup));
    report.finish();
}
