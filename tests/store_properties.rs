//! End-to-end properties of the artifact store's red-green contract,
//! driven through the real corpus pipeline and a real model bundle.
//!
//! Gated contracts (ISSUE 10 acceptance criteria):
//! - a warm re-run of an unchanged corpus re-traces and re-executes
//!   **zero** programs and replays a bitwise-identical corpus, across a
//!   store "restart" (a fresh [`store::Store`] handle over the same
//!   directory) and across random generation seeds/knobs;
//! - editing one program invalidates exactly that program's artifacts;
//! - embeddings round-trip bitwise through the store, and a different
//!   checkpoint's fingerprint reads as a miss, never a wrong hit.

use datagen::{
    corpus_fingerprint, filter_source, generate_coset_corpus, generate_method_corpus,
    CorpusConfig,
};
use liger::{
    encode_program, program_into_vocab, EncodeOptions, LigerConfig, LigerNamer, ModelBundle,
    OutVocab, Vocab,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Store hit/miss counters are process-global; tests that assert deltas
/// serialize on this lock (parallel test threads would otherwise bleed
/// into each other's snapshots).
static COUNTERS: Mutex<()> = Mutex::new(());

fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lgrs-props-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_config(paths: usize, per_path: usize) -> CorpusConfig {
    CorpusConfig {
        variants_per_family: 1,
        defect_prob: 0.2,
        gen: randgen::GenConfig {
            target_paths: paths,
            concrete_per_path: per_path,
            max_attempts: 150,
            ..randgen::GenConfig::default()
        },
        ..CorpusConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The tentpole acceptance gate: for random seeds and generation
    /// knobs, a warm re-run over a *reopened* store replays the
    /// bitwise-identical method and COSET corpora with zero misses — no
    /// program is re-traced or re-executed — and a run with no store at
    /// all recomputes the same corpora.
    #[test]
    fn warm_rerun_is_bitwise_identical_with_zero_misses(
        seed in 0u64..=1000,
        paths in 3usize..=5,
        per_path in 2usize..=3,
    ) {
        let _guard = counter_lock();
        let config = small_config(paths, per_path);
        let method = |st: Option<&store::Store>| {
            generate_method_corpus(&config, &mut StdRng::seed_from_u64(seed), st).unwrap()
        };
        let coset = |st: Option<&store::Store>| {
            generate_coset_corpus(&config, &mut StdRng::seed_from_u64(seed), st).unwrap()
        };
        let dir = temp_dir("warm");
        let (cold_method, cold_coset) = {
            let st = store::Store::open(&dir).unwrap();
            (method(Some(&st)), coset(Some(&st)))
        };
        prop_assert!(cold_method.stats.kept > 0);
        prop_assert!(cold_coset.stats.kept > 0);

        // "Restart": a fresh handle over the same directory, as a new
        // process would open it.
        let st = store::Store::open(&dir).unwrap();
        let before = store::StoreStats::snapshot();
        let (warm_method, warm_coset) = (method(Some(&st)), coset(Some(&st)));
        let delta = store::StoreStats::snapshot().since(&before);
        prop_assert_eq!(&cold_method, &warm_method);
        prop_assert_eq!(&cold_coset, &warm_coset);
        prop_assert_eq!(delta.misses, 0, "warm rerun re-traced {} program(s)", delta.misses);
        let programs = cold_method.stats.original + cold_coset.stats.original;
        prop_assert!(delta.hits as usize >= programs);

        prop_assert_eq!(&cold_method, &method(None));
        prop_assert_eq!(&cold_coset, &coset(None));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Editing one program moves exactly its artifact to a new key: the
/// second pass misses once (the edited program) and hits everything
/// else.
#[test]
fn editing_one_program_costs_exactly_one_miss() {
    let _guard = counter_lock();
    let config = small_config(4, 2);
    let dir = temp_dir("one-edit");
    let st = store::Store::open(&dir).unwrap();

    let sources: Vec<String> = datagen::Behavior::ALL
        .iter()
        .take(6)
        .map(|b| b.render(&datagen::Knobs::plain()))
        .collect();
    for src in &sources {
        filter_source(src, &config, Some(&st)).unwrap().unwrap();
    }

    // Second pass with one source edited (an extra harmless statement).
    let mut edited = sources.clone();
    edited[2] = edited[2].replacen('{', "{\nlet extraTmp: int = 0;\nextraTmp += 1;\n", 1);
    let before = store::StoreStats::snapshot();
    for src in &edited {
        filter_source(src, &config, Some(&st)).unwrap().unwrap();
    }
    let delta = store::StoreStats::snapshot().since(&before);
    assert_eq!(delta.misses, 1, "exactly the edited program must miss: {delta}");
    assert_eq!(delta.hits, 5, "every unchanged program must hit: {delta}");

    // Both the old and the new artifact exist — red-green, not purge.
    let fp = corpus_fingerprint(&config);
    for src in sources.iter().chain([&edited[2]]) {
        let key = store::hash::fnv1a_str(src);
        assert!(st.get(store::ArtifactKind::CorpusOutcome, key, &fp).unwrap().is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Embeddings survive the store bitwise, stamped with the bundle
/// fingerprint; a retrained bundle's fingerprint differs, so its reads
/// miss instead of replaying the stale vector.
#[test]
fn embedding_roundtrips_bitwise_and_fingerprint_guards_staleness() {
    let _guard = counter_lock();
    let src = store::hash::PIN_PROGRAM;
    let program = minilang::parse(src).unwrap();
    minilang::typecheck(&program).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let gen = randgen::GenConfig {
        target_paths: 4,
        concrete_per_path: 2,
        max_attempts: 200,
        ..randgen::GenConfig::default()
    };
    let (groups, _) = randgen::generate_grouped(&program, &gen, &mut rng);
    let blended: Vec<trace::BlendedTrace> = groups.iter().filter_map(|g| g.blend(2).ok()).collect();

    let opts = EncodeOptions::default();
    let mut vocab = Vocab::new();
    program_into_vocab(&program, &blended, &mut vocab, &opts);
    let mut out = OutVocab::new();
    out.add("add");
    let cfg = LigerConfig { hidden: 8, attn: 8, ..LigerConfig::default() };

    let bundle_with_seed = |seed: u64| {
        let mut pstore = tensor::ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = LigerNamer::new(&mut pstore, vocab.len(), out.len(), cfg, &mut rng);
        ModelBundle::for_namer(cfg, vocab.clone(), out.clone(), pstore)
    };
    let bundle = bundle_with_seed(17);
    let inf = liger::Inferencer::from_bundle(&bundle).unwrap();
    let encoded = encode_program(&program, &blended, &inf.vocab, &opts);
    let emb = inf.embed(&encoded);

    let dir = temp_dir("emb");
    let st = store::Store::open(&dir).unwrap();
    let key = store::hash::fnv1a_str(src);
    let fp = bundle.fingerprint();
    st.put(store::ArtifactKind::Embedding, key, &fp, &store::embedding_to_bytes(&emb)).unwrap();

    // Bitwise across a reopen.
    let st = store::Store::open(&dir).unwrap();
    let payload = st.get(store::ArtifactKind::Embedding, key, &fp).unwrap().unwrap();
    let back = store::embedding_from_bytes(&payload).unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&emb), bits(&back));

    // A different checkpoint fingerprints differently and misses.
    let other = bundle_with_seed(99);
    assert_ne!(bundle.fingerprint(), other.fingerprint());
    assert_eq!(st.get(store::ArtifactKind::Embedding, key, &other.fingerprint()).unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}
