//! Static-analysis throughput and symexec pruning effect on the datagen
//! corpus. The report (`--json PATH`, committed as `BENCH_analysis.json`)
//! has these rows:
//!
//! - `lint` — full lint pipeline (CFG + four dataflow fixpoints +
//!   diagnostic passes) in programs analyzed per second;
//! - `facts` — the distilled `program_facts` summary the symbolic
//!   executor consumes;
//! - `symexec` — one row per pruning setting over the whole corpus,
//!   verifying the enumerated path multiset is identical and reporting
//!   the solver-call reduction;
//! - `canon` — canonicalization cost and dedup power over a
//!   variant-heavy corpus (every behavior rendered under several random
//!   knob draws), gating in-bench that ≥ 30% of same-behavior variant
//!   pairs collapse to a shared `canon_hash` and that zero
//!   lookalike-mutant pairs collide;
//! - `canon_memo` — canonical-key memoized encoding
//!   (`liger::CanonEncoder`) vs direct per-variant extraction, gating
//!   in-bench that memo reuse measurably reduces encode work.

use bench::{Json, Report};
use datagen::{with_distractors, with_opaque_distractor, Behavior, Knobs, Strategy};
use minilang::Program;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Every shipped template with plain knobs — the corpus `liger-lint`
/// gates in CI, and a realistic mix of loops, branches, and arrays.
fn corpus() -> Vec<Program> {
    let knobs = Knobs::plain();
    Behavior::ALL
        .iter()
        .map(|b| b.render(&knobs))
        .chain(Strategy::ALL.iter().map(|s| s.render(&knobs)))
        .map(|src| minilang::parse(&src).expect("template parses"))
        .collect()
}

/// The corpus as datagen's distractor engine emits it (deterministic
/// seed): constant-initialized dead branches plus one *opaque* dead
/// branch per program whose guard mentions an input. The opaque guards
/// stay symbolic under constant folding, so this is where
/// analysis-guided pruning pays off.
fn corpus_with_distractors() -> Vec<Program> {
    let knobs = Knobs::plain();
    let mut rng = StdRng::seed_from_u64(17);
    Behavior::ALL
        .iter()
        .map(|b| b.render(&knobs))
        .chain(Strategy::ALL.iter().map(|s| s.render(&knobs)))
        .map(|src| {
            let noisy = with_opaque_distractor(&with_distractors(&src, 2, &mut rng), &mut rng);
            minilang::parse(&noisy).expect("distractor template parses")
        })
        .collect()
}

fn bench_analyses(report: &mut Report, programs: &[Program]) {
    for (mode, work) in [
        ("lint", (|p| analysis::lint::run(p).diagnostics.len()) as fn(&Program) -> usize),
        ("facts", |p| analysis::program_facts(p).reachable.len()),
    ] {
        // Warm up, then measure enough rounds to dominate timer noise.
        let rounds = 20usize;
        let mut sink = 0usize;
        for p in programs {
            sink = sink.wrapping_add(work(p));
        }
        let start = Instant::now();
        for _ in 0..rounds {
            for p in programs {
                sink = sink.wrapping_add(work(p));
            }
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        let analyzed = rounds * programs.len();
        report.row(
            mode,
            vec![
                ("programs", Json::num(programs.len())),
                ("rounds", Json::num(rounds)),
                ("seconds", Json::Num(secs)),
                ("programs_per_sec", Json::Num(analyzed as f64 / secs)),
            ],
        );
    }
}

fn bench_symexec(report: &mut Report, programs: &[Program]) {
    let base = symexec::SymExecConfig {
        max_paths: 16,
        max_steps: 200,
        ..symexec::SymExecConfig::default()
    };
    let mut rows = Vec::new();
    let mut paths_unpruned = Vec::new();
    for use_analysis in [false, true] {
        let config = symexec::SymExecConfig { use_analysis, ..base.clone() };
        let mut solver_calls = 0usize;
        let mut pruned_guards = 0usize;
        let mut paths_total = 0usize;
        let start = Instant::now();
        for (i, p) in programs.iter().enumerate() {
            let (paths, stats) = symexec::symbolic_execute(p, &config);
            solver_calls += stats.solver_calls;
            pruned_guards += stats.pruned_guards;
            paths_total += paths.len();
            let mut key: Vec<_> = paths.into_iter().map(|p| p.steps).collect();
            key.sort();
            if use_analysis {
                assert_eq!(paths_unpruned[i], key, "pruning changed the path set");
            } else {
                paths_unpruned.push(key);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        rows.push((use_analysis, paths_total, solver_calls, pruned_guards, secs));
    }
    let (_, _, calls_off, _, _) = rows[0];
    for (use_analysis, paths, calls, pruned, secs) in rows {
        let reduction = if use_analysis && calls_off > 0 {
            1.0 - calls as f64 / calls_off as f64
        } else {
            0.0
        };
        report.row(
            "symexec",
            vec![
                ("use_analysis", Json::Bool(use_analysis)),
                ("programs", Json::num(programs.len())),
                ("paths", Json::num(paths)),
                ("solver_calls", Json::num(calls)),
                ("pruned_guards", Json::num(pruned)),
                ("solver_call_reduction", Json::Num(reduction)),
                ("seconds", Json::Num(secs)),
            ],
        );
        if use_analysis {
            report.summary("pruned_guards", Json::num(pruned));
            report.summary("solver_call_reduction", Json::Num(reduction));
        }
    }
}

/// Lookalike pairs: same loop/branch shape, different semantics. The
/// canonicalizer must never merge them, under any knob draw.
const CONFUSABLE: [(Behavior, Behavior); 5] = [
    (Behavior::SumArray, Behavior::ProductArray),
    (Behavior::MaxArray, Behavior::MinArray),
    (Behavior::CountPositive, Behavior::CountNegative),
    (Behavior::CountEven, Behavior::CountPositive),
    (Behavior::SumEven, Behavior::SumPositive),
];

fn bench_canon(report: &mut Report) {
    const DRAWS: usize = 6;
    let mut rng = StdRng::seed_from_u64(29);

    // A variant-heavy corpus: every behavior under DRAWS unrestricted
    // knob draws (loop style, increment/doubling spelling, comparison
    // style, misleading-prone identifier assignment).
    let mut sources: Vec<(usize, String)> = Vec::new();
    for (bi, b) in Behavior::ALL.iter().enumerate() {
        for _ in 0..DRAWS {
            sources.push((bi, b.render(&Knobs::random(&mut rng, 0.5))));
        }
    }
    let parsed: Vec<Program> =
        sources.iter().map(|(_, s)| minilang::parse(s).expect("variant parses")).collect();

    let start = Instant::now();
    let canons: Vec<_> = parsed.iter().map(analysis::canonicalize).collect();
    let canon_secs = start.elapsed().as_secs_f64();
    let canon_us = canon_secs * 1e6 / parsed.len() as f64;

    // Same-behavior pair collapse + corpus dedup ratio.
    let mut pairs = 0usize;
    let mut collapsed = 0usize;
    for bi in 0..Behavior::ALL.len() {
        let hashes: Vec<u64> = sources
            .iter()
            .zip(&canons)
            .filter(|((owner, _), _)| *owner == bi)
            .map(|(_, c)| c.hash)
            .collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                pairs += 1;
                collapsed += usize::from(hashes[i] == hashes[j]);
            }
        }
    }
    let pair_collapse = collapsed as f64 / pairs as f64;
    let mut distinct: Vec<u64> = canons.iter().map(|c| c.hash).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let dedup_ratio = 1.0 - distinct.len() as f64 / canons.len() as f64;

    // Lookalike mutants: same knobs, different semantics — zero shared
    // hashes allowed.
    let mut mutant_pairs = 0usize;
    let mut mutant_collisions = 0usize;
    for (left, right) in CONFUSABLE {
        for _ in 0..4 {
            let knobs = Knobs::random(&mut rng, 0.5);
            let l = minilang::parse(&left.render(&knobs)).expect("mutant parses");
            let r = minilang::parse(&right.render(&knobs)).expect("mutant parses");
            mutant_pairs += 1;
            mutant_collisions +=
                usize::from(analysis::canonicalize(&l).hash == analysis::canonicalize(&r).hash);
        }
    }

    report.row(
        "canon",
        vec![
            ("programs", Json::num(parsed.len())),
            ("behaviors", Json::num(Behavior::ALL.len())),
            ("draws", Json::num(DRAWS)),
            ("distinct", Json::num(distinct.len())),
            ("dedup_ratio", Json::Num(dedup_ratio)),
            ("pair_collapse", Json::Num(pair_collapse)),
            ("mutant_pairs", Json::num(mutant_pairs)),
            ("mutant_collisions", Json::num(mutant_collisions)),
            ("canon_us_per_program", Json::Num(canon_us)),
            ("seconds", Json::Num(canon_secs)),
        ],
    );
    report.summary("dedup_ratio", Json::Num(dedup_ratio));
    report.summary("pair_collapse", Json::Num(pair_collapse));
    report.summary("pair_collapse_floor", Json::Num(0.30));
    assert!(
        pair_collapse >= 0.30,
        "variant-pair collapse {pair_collapse:.4} below the 30% floor"
    );
    assert_eq!(mutant_collisions, 0, "lookalike mutants collided under canonicalization");

    // Canonical-key memoized encoding vs direct extraction: the memo
    // extracts once per canonical form, so a variant-heavy corpus does
    // strictly less encode work.
    let opts = liger::ExtractOptions::default();
    let texts: Vec<&str> = sources.iter().map(|(_, s)| s.as_str()).collect();
    let vocab = liger::vocab_from_sources(&texts, &opts).expect("variant corpus traces");

    let start = Instant::now();
    for src in &texts {
        let encoded = liger::extract_encoded(src, &vocab, &opts).expect("variant encodes");
        std::hint::black_box(&encoded);
    }
    let direct_secs = start.elapsed().as_secs_f64();

    let mut encoder = liger::CanonEncoder::new();
    let start = Instant::now();
    for src in &texts {
        let encoded = encoder.encode(src, &vocab, &opts).expect("variant encodes");
        std::hint::black_box(&encoded);
    }
    let memo_secs = start.elapsed().as_secs_f64();

    let extraction_reduction = 1.0 - encoder.misses as f64 / texts.len() as f64;
    report.row(
        "canon_memo",
        vec![
            ("programs", Json::num(texts.len())),
            ("encodes_direct", Json::num(texts.len())),
            ("encodes_memo", Json::Num(encoder.misses as f64)),
            ("hits", Json::Num(encoder.hits as f64)),
            ("extraction_reduction", Json::Num(extraction_reduction)),
            ("direct_seconds", Json::Num(direct_secs)),
            ("memo_seconds", Json::Num(memo_secs)),
            ("encode_speedup", Json::Num(direct_secs / memo_secs)),
        ],
    );
    assert_eq!(encoder.misses as usize, distinct.len(), "memo must extract once per canonical form");
    assert!(
        encoder.hits > 0 && (encoder.misses as usize) < texts.len(),
        "memo reuse never fired on a variant-heavy corpus"
    );
    assert!(
        memo_secs < direct_secs,
        "canonical-key memoization did not reduce encode time \
         (memo {memo_secs:.6}s vs direct {direct_secs:.6}s)"
    );
}

fn main() {
    let mut report = Report::new(
        "throughput_analysis",
        "53 datagen templates: lint + program_facts throughput; symexec path enumeration \
         with/without analysis pruning on the distractor-augmented corpus (identical path sets \
         asserted in-bench); canonicalizer dedup over a variant-heavy corpus (>= 30% pair \
         collapse, zero mutant collisions, and memo encode-work reduction asserted in-bench)",
        bench::Args::parse(),
    );
    let programs = corpus();
    println!("\nstatic-analysis throughput over the {}-template corpus", programs.len());
    bench_analyses(&mut report, &programs);
    bench_symexec(&mut report, &corpus_with_distractors());
    bench_canon(&mut report);
    report.finish();
}
