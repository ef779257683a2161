//! Artifact-store throughput: a full corpus pass cold (tracing every
//! program, populating the store) vs warm (replaying every outcome from
//! disk), with the ISSUE 10 acceptance gate asserted in-bench:
//!
//! - the warm pass must run at least **3×** faster than the cold pass,
//! - the warm pass must report **zero** misses (no program re-traced),
//! - warm samples must be bitwise identical to cold samples.
//!
//! The report (`cold` row: generation + store population; `warm` row:
//! replay from disk; summary: the gates and the observed speedup) lands
//! in `BENCH_store.json` (`--json PATH`). `--smoke` shrinks the corpus
//! for the CI gate.

use std::time::Instant;

use bench::{Json, Report};
use datagen::{generate_method_corpus, CorpusConfig, MethodCorpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SPEEDUP_FLOOR: f64 = 3.0;

fn config(variants: usize, paths: usize) -> CorpusConfig {
    CorpusConfig {
        variants_per_family: variants,
        defect_prob: 0.1,
        gen: randgen::GenConfig {
            target_paths: paths,
            concrete_per_path: 5,
            max_attempts: 800,
            ..randgen::GenConfig::default()
        },
        ..CorpusConfig::default()
    }
}

fn corpus_pass(
    config: &CorpusConfig,
    seed: u64,
    st: &store::Store,
) -> (MethodCorpus, f64, store::StoreStats) {
    let before = store::StoreStats::snapshot();
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let corpus =
        generate_method_corpus(config, &mut rng, Some(st)).expect("store pass");
    let secs = start.elapsed().as_secs_f64();
    (corpus, secs, store::StoreStats::snapshot().since(&before))
}

fn main() {
    let mut report = Report::new(
        "throughput_store",
        "content-addressed artifact store (LGRS1): full method-corpus pass cold (trace + filter \
         every program, populate the store) vs warm (replay every cached outcome; zero misses, \
         bitwise-identical samples and >= 3x speedup asserted in-bench)",
        bench::Args::parse(),
    );
    let (variants, paths, seed) = if report.smoke() { (2, 6, 0x57) } else { (8, 12, 0x57) };
    let config = config(variants, paths);

    let dir = std::env::temp_dir().join(format!("lgrs-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let st = store::Store::open(&dir).expect("open store");

    // ---- cold pass: trace everything, populate the store ----------------
    let (cold, cold_secs, cold_stats) = corpus_pass(&config, seed, &st);
    let programs = cold.stats.original;
    report.row(
        "cold",
        vec![
            ("programs", Json::num(programs)),
            ("kept", Json::num(cold.stats.kept)),
            ("seconds", Json::Num(cold_secs)),
            ("programs_per_sec", Json::Num(programs as f64 / cold_secs)),
            ("misses", Json::Num(cold_stats.misses as f64)),
            ("bytes", Json::Num(cold_stats.bytes as f64)),
        ],
    );

    // ---- warm pass: replay every outcome from disk -----------------------
    let st = store::Store::open(&dir).expect("reopen store");
    let (warm, warm_secs, warm_stats) = corpus_pass(&config, seed, &st);
    report.row(
        "warm",
        vec![
            ("programs", Json::num(programs)),
            ("kept", Json::num(warm.stats.kept)),
            ("seconds", Json::Num(warm_secs)),
            ("programs_per_sec", Json::Num(programs as f64 / warm_secs)),
            ("hits", Json::Num(warm_stats.hits as f64)),
            ("misses", Json::Num(warm_stats.misses as f64)),
        ],
    );

    // ---- the gates -------------------------------------------------------
    assert_eq!(warm_stats.misses, 0, "warm pass re-traced {} program(s)", warm_stats.misses);
    assert_eq!(cold.stats, warm.stats, "warm pass changed the filter verdicts");
    for (a, b) in cold.samples.iter().zip(&warm.samples) {
        assert_eq!(a.program, b.program, "warm program drifted: {}", a.name);
        assert_eq!(a.groups, b.groups, "warm traces not bitwise identical: {}", a.name);
    }
    let speedup = cold_secs / warm_secs.max(1e-9);
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "warm corpus pass speedup {speedup:.2}x fell below the {SPEEDUP_FLOOR}x floor \
         (cold {cold_secs:.3}s, warm {warm_secs:.3}s)"
    );
    std::fs::remove_dir_all(&dir).ok();
    report.summary("warm_speedup", Json::Num(speedup));
    report.summary("speedup_floor", Json::Num(SPEEDUP_FLOOR));
    report.finish();
}
