//! Corpus assembly: generation, the Table 1 filtering pipeline, and
//! train/validation/test splits.
//!
//! The paper filters Java-med/Java-large down to methods that (1) compile,
//! (2) Randoop can execute, (3) finish within a timeout, and (4) are not
//! trivially small (Table 1). The raw generator here deliberately includes
//! defective programs (corrupted sources, crash-on-every-input bodies,
//! diverging bodies, trivially small bodies) so that the same pipeline has
//! real work to do.

use crate::coset::Strategy;
use crate::templates::Behavior;
use crate::variation::Knobs;
use minilang::Program;
use rand::{Rng, RngExt as _};
use randgen::{generate_grouped, GenConfig};
use tensor::codec::{ByteReader, ByteWriter};
use trace::PathGroup;

/// Why a raw program was filtered out — the categories of Table 1's
/// "filtered" discussion (§6.1 Datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterReason {
    /// Does not parse or type-check ("some programs do not compile").
    DoesNotCompile,
    /// No input produced a successful execution ("Randoop does not have
    /// access" / everything crashes).
    NoExecutions,
    /// Exceeded the fuel budget on every attempt ("take too long").
    Timeout,
    /// Fewer statements than the minimum ("too small to be considered").
    TooSmall,
}

/// Aggregate statistics of one filtering run — the data behind Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Programs generated before filtering ("Original").
    pub original: usize,
    /// Programs surviving all filters ("Filtered").
    pub kept: usize,
    /// Dropped: compile failures.
    pub no_compile: usize,
    /// Dropped: no successful executions.
    pub no_exec: usize,
    /// Dropped: timeouts.
    pub timeout: usize,
    /// Dropped: too small.
    pub too_small: usize,
}

/// One usable sample of the method-name corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSample {
    /// The ground-truth method name.
    pub name: String,
    /// The behaviour family ("project" for splitting purposes).
    pub behavior: Behavior,
    /// The parsed program.
    pub program: Program,
    /// Executions grouped by path, ready to blend.
    pub groups: Vec<PathGroup>,
}

/// One usable sample of the COSET-like corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CosetSample {
    /// The algorithm-strategy class label.
    pub label: usize,
    /// The strategy.
    pub strategy: Strategy,
    /// The parsed program.
    pub program: Program,
    /// Executions grouped by path.
    pub groups: Vec<PathGroup>,
}

/// Generation settings for both corpora.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Variants generated per behaviour/strategy (before filtering).
    pub variants_per_family: usize,
    /// Probability of a misleading accumulator name.
    pub misleading_prob: f64,
    /// Probability of injecting a defective variant (exercises Table 1's
    /// filter categories).
    pub defect_prob: f64,
    /// Maximum dead-code distractor statements per program (each variant
    /// draws uniformly from `0..=max_distractors`); distractors carry
    /// cross-family keywords to defeat keyword mining while leaving
    /// runtime behaviour untouched.
    pub max_distractors: usize,
    /// Trace generation settings (paths × concrete executions).
    pub gen: GenConfig,
    /// Minimum statement count (the "too small" filter).
    pub min_statements: usize,
    /// Base seed of the per-program trace RNGs. Each program's executions
    /// are drawn from `splitmix64(content_hash ^ gen_seed)`, so a cache hit
    /// skips exactly the draws that program would have consumed — the
    /// shared corpus RNG stream never observes whether the store was warm.
    pub gen_seed: u64,
}

/// Default [`CorpusConfig::gen_seed`].
pub const DEFAULT_GEN_SEED: u64 = 0x4c49_4745_5253_3130; // "LIGERS10"

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            variants_per_family: 8,
            misleading_prob: 0.8,
            defect_prob: 0.08,
            max_distractors: 2,
            gen: GenConfig { target_paths: 12, concrete_per_path: 5, ..GenConfig::default() },
            min_statements: 3,
            gen_seed: DEFAULT_GEN_SEED,
        }
    }
}

/// A generated corpus plus its filtering statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus<S> {
    /// The surviving samples.
    pub samples: Vec<S>,
    /// Table 1 statistics.
    pub stats: FilterStats,
}

/// The method-name corpus.
pub type MethodCorpus = Corpus<MethodSample>;

/// The COSET-like corpus.
pub type CosetCorpus = Corpus<CosetSample>;

/// Injects a defect into a source string (for the filter pipeline tests).
fn corrupt<R: Rng + ?Sized>(src: &str, rng: &mut R) -> (String, FilterReason) {
    match rng.random_range(0..4) {
        0 => {
            // Undeclared variable → type error.
            (src.replacen("return", "return zz9 + 0 * ", 1), FilterReason::DoesNotCompile)
        }
        1 => {
            // Crash on every input.
            let broken = src.replacen('{', "{\nlet zz0: int = 1 / (0 * 1);\n", 1);
            (broken, FilterReason::NoExecutions)
        }
        2 => {
            // Diverge on every input.
            let broken =
                src.replacen('{', "{\nlet zz1: int = 0;\nwhile (zz1 < 1) {\nzz1 *= 1;\n}\n", 1);
            (broken, FilterReason::Timeout)
        }
        _ => {
            // Trivially small.
            let name = src.split('(').next().unwrap_or("fn f").to_string();
            (format!("{name}() -> int {{\nreturn 0;\n}}"), FilterReason::TooSmall)
        }
    }
}

/// Runs the filter pipeline on one source string, tracing with `rng` —
/// the inner step of [`filter_source`], which supplies the per-program RNG.
fn filter_one<R: Rng + ?Sized>(
    src: &str,
    config: &CorpusConfig,
    rng: &mut R,
) -> Result<(Program, Vec<PathGroup>), FilterReason> {
    let program = match minilang::parse(src).and_then(|p| minilang::typecheck(&p).map(|()| p)) {
        Ok(p) => p,
        Err(_) => return Err(FilterReason::DoesNotCompile),
    };
    if program.statements().len() < config.min_statements {
        return Err(FilterReason::TooSmall);
    }
    // Fatal lints prove the program crashes or diverges on every input, so
    // classify it without spending a single execution (provably-divergent
    // loops land in the paper's "take too long" bucket, everything else in
    // "no executions"). Warnings — dead code, unused defs — never gate:
    // the distractor engine injects those on purpose.
    let report = analysis::lint::run(&program);
    if report.has_fatal() {
        let divergent =
            report.fatal().any(|d| d.kind == analysis::LintKind::DivergentLoop);
        return Err(if divergent { FilterReason::Timeout } else { FilterReason::NoExecutions });
    }
    let (groups, stats) = generate_grouped(&program, &config.gen, rng);
    if groups.is_empty() {
        // Distinguish "everything timed out" from "everything crashed" by
        // re-running one input with generous fuel.
        let inputs = randgen::random_inputs(&program, &config.gen.inputs, rng);
        return match interp::run_with_fuel(&program, &inputs, config.gen.fuel * 8) {
            Err(interp::RuntimeError::OutOfFuel) => Err(FilterReason::Timeout),
            _ => Err(FilterReason::NoExecutions),
        };
    }
    debug_assert!(stats.kept > 0);
    Ok((program, groups))
}

fn record(stats: &mut FilterStats, reason: FilterReason) {
    match reason {
        FilterReason::DoesNotCompile => stats.no_compile += 1,
        FilterReason::NoExecutions => stats.no_exec += 1,
        FilterReason::Timeout => stats.timeout += 1,
        FilterReason::TooSmall => stats.too_small += 1,
    }
}

/// Stable wire tags for [`FilterReason`].
const REASON_TAGS: [FilterReason; 4] = [
    FilterReason::DoesNotCompile,
    FilterReason::NoExecutions,
    FilterReason::Timeout,
    FilterReason::TooSmall,
];

/// Fingerprint stamped on cached corpus outcomes: every knob that can
/// change a program's filter verdict or its traces. A changed knob reads
/// every cached outcome as a miss instead of replaying stale traces.
#[must_use]
pub fn corpus_fingerprint(config: &CorpusConfig) -> String {
    let g = &config.gen;
    let alphabet: String = g.inputs.alphabet.iter().collect();
    format!(
        "corpus@1/s{:016x}/p{}/c{}/a{}/f{}/ib{}/al{}/sl{}/ab{}/scr{}/min{}",
        config.gen_seed,
        g.target_paths,
        g.concrete_per_path,
        g.max_attempts,
        g.fuel,
        g.inputs.int_bound,
        g.inputs.max_array_len,
        g.inputs.max_str_len,
        alphabet,
        u8::from(g.static_screen),
        config.min_statements,
    )
}

/// Serializes one filter outcome: `0 reason` for a rejection, `1 groups`
/// for an acceptance. The program itself never travels — it is reparsed
/// from the (locally regenerated) source on a hit, which `parse`'s
/// pre-order id assignment makes bitwise-faithful.
#[must_use]
pub fn outcome_to_bytes(outcome: &Result<Vec<PathGroup>, FilterReason>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match outcome {
        Ok(groups) => {
            w.u8(1);
            w.seq(groups, trace::persist::write_group);
        }
        Err(reason) => {
            w.u8(0);
            w.u8(REASON_TAGS.iter().position(|r| r == reason).expect("reason in wire table")
                as u8);
        }
    }
    w.into_bytes()
}

/// Parses a payload written by [`outcome_to_bytes`].
///
/// # Errors
///
/// Typed [`store::StoreError`] on truncation, trailing bytes, or an
/// unknown tag.
pub fn outcome_from_bytes(
    buf: &[u8],
) -> Result<Result<Vec<PathGroup>, FilterReason>, store::StoreError> {
    let mut r = ByteReader::new(buf);
    let outcome = match r.u8()? {
        0 => Err(*REASON_TAGS.get(r.u8()? as usize).ok_or(store::StoreError::BadRecord)?),
        1 => Ok(r.seq(trace::persist::MIN_GROUP_LEN, trace::persist::read_group)?),
        _ => return Err(store::StoreError::BadRecord),
    };
    r.finish()?;
    Ok(outcome)
}

/// Filters and traces one source string: the verdict and, for a kept
/// program, its parsed form and path groups.
///
/// The trace RNG is derived from the source's content hash, so the
/// verdict is a pure function of `(src, config)` — that is what makes
/// the cached outcome replayable. With a warm `store` the program is
/// neither executed nor traced; with `store == None` the verdict is
/// identical, just recomputed.
///
/// # Errors
///
/// Typed [`store::StoreError`] when a cached outcome is corrupt.
pub fn filter_source(
    src: &str,
    config: &CorpusConfig,
    store: Option<&store::Store>,
) -> Result<Result<(Program, Vec<PathGroup>), FilterReason>, store::StoreError> {
    let key = store::hash::fnv1a_str(src);
    let fp = corpus_fingerprint(config);
    if let Some(store) = store {
        if let Some(payload) = store.get(store::ArtifactKind::CorpusOutcome, key, &fp)? {
            return match outcome_from_bytes(&payload)? {
                Ok(groups) => {
                    // An accepted entry proves the source compiled; a
                    // store that disagrees is handing back bytes for a
                    // different program.
                    let program = minilang::parse(src)
                        .ok()
                        .filter(|p| minilang::typecheck(p).is_ok())
                        .ok_or(store::StoreError::BadRecord)?;
                    Ok(Ok((program, groups)))
                }
                Err(reason) => Ok(Err(reason)),
            };
        }
    }
    let mut rng = derived_trace_rng(key, config.gen_seed);
    let outcome = filter_one(src, config, &mut rng);
    if let Some(store) = store {
        let cacheable = match &outcome {
            Ok((_, groups)) => Ok(groups.clone()),
            Err(reason) => Err(*reason),
        };
        store.put(store::ArtifactKind::CorpusOutcome, key, &fp, &outcome_to_bytes(&cacheable))?;
    }
    Ok(outcome)
}

/// The per-program trace RNG: mixing the content hash with the corpus
/// seed keeps sibling programs' streams independent even when sources
/// differ by one byte.
fn derived_trace_rng(key: u64, gen_seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(store::hash::splitmix64(key ^ gen_seed))
}

/// The one generation loop behind both corpora. For each family it draws
/// `variants_per_family` sources from `rng` — knobs, then `render`'s own
/// draws, then distractors and an optional defect — and keeps each source
/// that [`filter_source`] accepts as `sample(family, label, program,
/// groups)`. Only sources come from `rng`; tracing uses per-program RNGs,
/// so a warm store replays the identical corpus without executing a
/// single program.
fn generate<F: Copy, L, S, R: Rng + ?Sized>(
    families: &[F],
    config: &CorpusConfig,
    rng: &mut R,
    store: Option<&store::Store>,
    render: impl Fn(F, &Knobs, &mut R) -> (String, L),
    sample: impl Fn(F, L, Program, Vec<PathGroup>) -> S,
) -> Result<Corpus<S>, store::StoreError> {
    let mut corpus = Corpus { samples: Vec::new(), stats: FilterStats::default() };
    for &family in families {
        for _ in 0..config.variants_per_family {
            corpus.stats.original += 1;
            let knobs = Knobs::random(rng, config.misleading_prob);
            let (body, label) = render(family, &knobs, rng);
            let distractors = rng.random_range(0..=config.max_distractors);
            let mut src = crate::variation::with_distractors(&body, distractors, rng);
            if rng.random_bool(config.defect_prob) {
                src = corrupt(&src, rng).0;
            }
            match filter_source(&src, config, store)? {
                Ok((program, groups)) => {
                    corpus.stats.kept += 1;
                    corpus.samples.push(sample(family, label, program, groups));
                }
                Err(reason) => record(&mut corpus.stats, reason),
            }
        }
    }
    Ok(corpus)
}

/// Generates the method-name corpus, through `store` when one is given
/// (`None` recomputes every outcome; the corpus is the same either way).
///
/// # Errors
///
/// Typed [`store::StoreError`] when a cached outcome is corrupt.
pub fn generate_method_corpus<R: Rng + ?Sized>(
    config: &CorpusConfig,
    rng: &mut R,
    store: Option<&store::Store>,
) -> Result<MethodCorpus, store::StoreError> {
    generate(
        &Behavior::ALL,
        config,
        rng,
        store,
        |behavior, knobs, rng| {
            let pool = behavior.name_pool();
            let name = pool[rng.random_range(0..pool.len())];
            (behavior.render_named(knobs, name), name)
        },
        |behavior, name, program, groups| MethodSample {
            name: name.to_string(),
            behavior,
            program,
            groups,
        },
    )
}

/// Generates the COSET-like corpus; see [`generate_method_corpus`].
///
/// # Errors
///
/// Typed [`store::StoreError`] when a cached outcome is corrupt.
pub fn generate_coset_corpus<R: Rng + ?Sized>(
    config: &CorpusConfig,
    rng: &mut R,
    store: Option<&store::Store>,
) -> Result<CosetCorpus, store::StoreError> {
    generate(
        &Strategy::ALL,
        config,
        rng,
        store,
        |strategy, knobs, _| (strategy.render(knobs), ()),
        |strategy, (), program, groups| CosetSample {
            label: strategy.label(),
            strategy,
            program,
            groups,
        },
    )
}

/// A train/validation/test split (by index, variants disjoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training indices.
    pub train: Vec<usize>,
    /// Validation indices.
    pub valid: Vec<usize>,
    /// Test indices.
    pub test: Vec<usize>,
}

/// Splits `n` samples into shuffled train/valid/test index sets with the
/// given fractions (test takes the remainder).
///
/// # Panics
///
/// Panics when the fractions exceed 1.
pub fn split_indices<R: Rng + ?Sized>(
    n: usize,
    train_frac: f64,
    valid_frac: f64,
    rng: &mut R,
) -> Split {
    assert!(train_frac + valid_frac <= 1.0, "fractions exceed 1");
    let mut idx: Vec<usize> = (0..n).collect();
    use rand::seq::SliceRandom;
    idx.shuffle(rng);
    let n_train = (n as f64 * train_frac).round() as usize;
    let n_valid = (n as f64 * valid_frac).round() as usize;
    let train = idx[..n_train.min(n)].to_vec();
    let valid = idx[n_train.min(n)..(n_train + n_valid).min(n)].to_vec();
    let test = idx[(n_train + n_valid).min(n)..].to_vec();
    Split { train, valid, test }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> CorpusConfig {
        CorpusConfig {
            variants_per_family: 2,
            defect_prob: 0.3,
            gen: GenConfig {
                target_paths: 4,
                concrete_per_path: 3,
                max_attempts: 200,
                ..GenConfig::default()
            },
            ..CorpusConfig::default()
        }
    }

    #[test]
    fn method_corpus_filters_and_keeps() {
        let mut rng = StdRng::seed_from_u64(500);
        let corpus = generate_method_corpus(&small_config(), &mut rng, None).unwrap();
        assert_eq!(corpus.stats.original, Behavior::ALL.len() * 2);
        assert!(corpus.stats.kept > 0);
        assert_eq!(corpus.samples.len(), corpus.stats.kept);
        let dropped = corpus.stats.no_compile
            + corpus.stats.no_exec
            + corpus.stats.timeout
            + corpus.stats.too_small;
        assert_eq!(corpus.stats.original, corpus.stats.kept + dropped);
        // With defect_prob 0.3 over 54 programs some must be filtered.
        assert!(dropped > 0, "filter pipeline had nothing to do");
        // Every kept sample has traces.
        assert!(corpus.samples.iter().all(|s| !s.groups.is_empty()));
    }

    #[test]
    fn coset_corpus_labels_are_valid() {
        let mut rng = StdRng::seed_from_u64(501);
        let corpus = generate_coset_corpus(&small_config(), &mut rng, None).unwrap();
        assert!(corpus.samples.iter().all(|s| s.label < Strategy::ALL.len()));
        assert!(corpus.stats.kept > 0);
    }

    #[test]
    fn statically_fatal_defects_classify_without_executing() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = small_config();
        let base = Behavior::SumArray.render(&Knobs::plain());
        // Corrupt case 1: unconditional division by zero → NoExecutions.
        let crash = base.replacen('{', "{\nlet zz0: int = 1 / (0 * 1);\n", 1);
        assert_eq!(
            filter_one(&crash, &config, &mut rng).unwrap_err(),
            FilterReason::NoExecutions
        );
        // Corrupt case 2: provably divergent loop → Timeout, decided by
        // the lint (constprop proves the guard stays true), not by fuel.
        let diverge =
            base.replacen('{', "{\nlet zz1: int = 0;\nwhile (zz1 < 1) {\nzz1 *= 1;\n}\n", 1);
        assert_eq!(
            filter_one(&diverge, &config, &mut rng).unwrap_err(),
            FilterReason::Timeout
        );
    }

    #[test]
    fn shipped_templates_are_lint_clean() {
        let knobs = Knobs::plain();
        for b in Behavior::ALL {
            let src = b.render(&knobs);
            let p = minilang::parse(&src).unwrap();
            minilang::typecheck(&p).unwrap();
            let report = analysis::lint::run(&p);
            assert!(report.is_clean(), "{b:?}:\n{}", report.render());
        }
        for s in Strategy::ALL {
            let src = s.render(&knobs);
            let p = minilang::parse(&src).unwrap();
            minilang::typecheck(&p).unwrap();
            let report = analysis::lint::run(&p);
            assert!(report.is_clean(), "{s:?}:\n{}", report.render());
        }
    }

    #[test]
    fn corrupt_produces_filterable_programs() {
        let mut rng = StdRng::seed_from_u64(502);
        let config = small_config();
        let base = Behavior::SumArray.render(&Knobs::plain());
        let mut seen_failure = false;
        for _ in 0..20 {
            let (src, _expected) = corrupt(&base, &mut rng);
            if filter_one(&src, &config, &mut rng).is_err() {
                seen_failure = true;
            }
        }
        assert!(seen_failure, "corruption never produced a filtered program");
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, store::Store) {
        let dir = std::env::temp_dir().join(format!("lgrs-datagen-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let st = store::Store::open(&dir).unwrap();
        (dir, st)
    }

    #[test]
    fn warm_store_replays_the_identical_corpus() {
        let config = small_config();
        let (dir, st) = temp_store("warm");
        let method = |store| {
            generate_method_corpus(&config, &mut StdRng::seed_from_u64(500), store).unwrap()
        };
        let coset = |store| {
            generate_coset_corpus(&config, &mut StdRng::seed_from_u64(501), store).unwrap()
        };

        let (cold_method, cold_coset) = (method(Some(&st)), coset(Some(&st)));
        assert!(cold_method.stats.kept > 0 && cold_coset.stats.kept > 0);
        assert_eq!(cold_method, method(Some(&st)));
        assert_eq!(cold_coset, coset(Some(&st)));

        // No store at all: same corpora, recomputed (derived trace RNGs
        // make the outcome a pure function of source + config).
        assert_eq!(cold_method, method(None));
        assert_eq!(cold_coset, coset(None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_knobs_read_as_misses_not_wrong_hits() {
        let config = small_config();
        let (dir, st) = temp_store("knobs");
        let mut rng = StdRng::seed_from_u64(500);
        let cold = generate_method_corpus(&config, &mut rng, Some(&st)).unwrap();

        // Same sources, different trace budget: fingerprint changes, so
        // the cached outcomes must NOT be replayed.
        let mut bigger = config.clone();
        bigger.gen.concrete_per_path += 1;
        assert_ne!(corpus_fingerprint(&config), corpus_fingerprint(&bigger));
        let mut rng = StdRng::seed_from_u64(500);
        let fresh = generate_method_corpus(&bigger, &mut rng, Some(&st)).unwrap();
        assert_eq!(cold.stats.original, fresh.stats.original);
        let more_traces: usize = fresh.samples.iter().flat_map(|s| &s.groups).map(|g| g.traces.len()).sum();
        let cold_traces: usize = cold.samples.iter().flat_map(|s| &s.groups).map(|g| g.traces.len()).sum();
        assert!(more_traces > cold_traces, "stale outcome replayed despite knob change");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn editing_one_program_invalidates_exactly_that_program() {
        let config = small_config();
        let (dir, st) = temp_store("redgreen");
        let src_a = Behavior::SumArray.render(&Knobs::plain());
        let src_b = Behavior::MaxArray.render(&Knobs::plain());
        let a = filter_source(&src_a, &config, Some(&st)).unwrap().unwrap();
        let b = filter_source(&src_b, &config, Some(&st)).unwrap().unwrap();

        // Edit program A: its artifact moves to a new key; B's stays put.
        let src_a2 = src_a.replace("return", "return 0 + ");
        let key_a = store::hash::fnv1a_str(&src_a);
        let key_a2 = store::hash::fnv1a_str(&src_a2);
        let key_b = store::hash::fnv1a_str(&src_b);
        assert_ne!(key_a, key_a2);
        let fp = corpus_fingerprint(&config);
        let _ = filter_source(&src_a2, &config, Some(&st)).unwrap().unwrap();
        for key in [key_a, key_a2, key_b] {
            assert!(
                st.get(store::ArtifactKind::CorpusOutcome, key, &fp).unwrap().is_some(),
                "artifact for {key:#x} missing"
            );
        }
        // B replays bitwise from its untouched artifact.
        let b2 = filter_source(&src_b, &config, Some(&st)).unwrap().unwrap();
        assert_eq!(b.0, b2.0);
        assert_eq!(b.1, b2.1);
        // A's new source replays from its own (new) artifact.
        let a2 = filter_source(&src_a2, &config, Some(&st)).unwrap().unwrap();
        assert_eq!(a2.1.is_empty(), a.1.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_outcomes_are_cached_too() {
        let config = small_config();
        let (dir, st) = temp_store("reject");
        let src = "fn tiny() -> int {\nreturn 0;\n}";
        let cold = filter_source(src, &config, Some(&st)).unwrap();
        assert_eq!(cold.unwrap_err(), FilterReason::TooSmall);
        let warm = filter_source(src, &config, Some(&st)).unwrap();
        assert_eq!(warm.unwrap_err(), FilterReason::TooSmall);
        let key = store::hash::fnv1a_str(src);
        let payload = st
            .get(store::ArtifactKind::CorpusOutcome, key, &corpus_fingerprint(&config))
            .unwrap()
            .expect("rejection cached");
        assert_eq!(payload, vec![0u8, 3u8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_partitions_all_indices() {
        let mut rng = StdRng::seed_from_u64(503);
        let split = split_indices(100, 0.7, 0.15, &mut rng);
        assert_eq!(split.train.len(), 70);
        assert_eq!(split.valid.len(), 15);
        assert_eq!(split.test.len(), 15);
        let mut all: Vec<usize> = split
            .train
            .iter()
            .chain(&split.valid)
            .chain(&split.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn overfull_split_panics() {
        let mut rng = StdRng::seed_from_u64(504);
        split_indices(10, 0.8, 0.4, &mut rng);
    }
}
