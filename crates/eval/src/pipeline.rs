//! Dataset preparation shared by every experiment.
//!
//! Turns the raw corpora of `datagen` into model-ready inputs for all
//! four models, with vocabularies built from the *training* split only
//! (test-time out-of-vocabulary tokens fall back to `<UNK>` exactly as in
//! the paper's setting), and with each sample's blended traces pre-ordered
//! by the §6.1.2 line-coverage reduction order so down-sampling
//! experiments are a prefix operation.
//!
//! The per-program work — blending traces and encoding each sample for
//! all four models — is independent across programs, so both preparation
//! passes fan out over [`par::par_map_ordered`]; results come back in
//! corpus order, so prepared datasets are identical for any thread count.

use baselines::{
    code2seq_input, code2seq_vocabs, code2vec_input, contexts_into_vocabs, dypro_input,
    names_into_vocab, Code2SeqInput, Code2VecInput, DyproOptions, DyproProgram, PathConfig,
};
use datagen::{CosetCorpus, MethodCorpus};
use liger::{
    encode_program, program_into_vocab, EncodeOptions, EncodedProgram, OutVocab, TokenId, Vocab,
};
use minilang::Program;
use rand::Rng;
use randgen::reduction_order;
use trace::BlendedTrace;

/// One fully-prepared method-name sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedMethod {
    /// Ground-truth method name.
    pub name: String,
    /// Its lowercase sub-tokens (metric ground truth).
    pub subtokens: Vec<String>,
    /// Decoder target ids (sub-tokens + `<EOS>`).
    pub target: Vec<TokenId>,
    /// Whole-name label id (code2vec's prediction space).
    pub name_label: usize,
    /// The program (needed to re-encode under reduction).
    pub program: Program,
    /// Blended traces ordered min-line-cover-first.
    pub blended: Vec<BlendedTrace>,
    /// LIGER's input at full traces.
    pub liger: EncodedProgram,
    /// DYPRO's input at full traces.
    pub dypro: DyproProgram,
    /// code2vec's input.
    pub c2v: Code2VecInput,
    /// code2seq's input.
    pub c2s: Code2SeqInput,
    /// Size of the minimum line-covering path set.
    pub min_cover: usize,
}

/// One fully-prepared classification sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedCoset {
    /// The strategy class label.
    pub label: usize,
    /// The program.
    pub program: Program,
    /// Blended traces ordered min-line-cover-first.
    pub blended: Vec<BlendedTrace>,
    /// LIGER's input at full traces.
    pub liger: EncodedProgram,
    /// DYPRO's input at full traces.
    pub dypro: DyproProgram,
    /// Size of the minimum line-covering path set.
    pub min_cover: usize,
}

/// All vocabularies of the method-name task.
#[derive(Debug, Clone)]
pub struct MethodVocabs {
    /// Shared input vocabulary 𝒟ₛ ∪ 𝒟_d (LIGER, DYPRO).
    pub input: Vocab,
    /// Output sub-token vocabulary.
    pub output: OutVocab,
    /// code2vec terminal vocabulary.
    pub terms: Vocab,
    /// code2vec path vocabulary.
    pub paths: Vocab,
    /// code2seq input sub-token vocabulary.
    pub subtokens: Vocab,
    /// code2seq node-type vocabulary.
    pub nodes: Vocab,
    /// Whole-name label vocabulary (code2vec's outputs).
    pub name_labels: Vocab,
}

/// A prepared method-name dataset.
#[derive(Debug, Clone)]
pub struct MethodDataset {
    /// Vocabularies (built from the training split).
    pub vocabs: MethodVocabs,
    /// Training samples.
    pub train: Vec<PreparedMethod>,
    /// Test samples.
    pub test: Vec<PreparedMethod>,
}

/// A prepared classification dataset.
#[derive(Debug, Clone)]
pub struct CosetDataset {
    /// Shared input vocabulary.
    pub vocab: Vocab,
    /// Number of classes.
    pub num_classes: usize,
    /// Training samples.
    pub train: Vec<PreparedCoset>,
    /// Test samples.
    pub test: Vec<PreparedCoset>,
}

/// Encoding bounds shared across models.
#[derive(Debug, Clone, Copy)]
pub struct PrepareOptions {
    /// LIGER/DYPRO trace bounds.
    pub encode: EncodeOptions,
    /// Baseline path-context bounds.
    pub paths: PathConfig,
    /// Fraction of samples used for training (rest is test).
    pub train_frac: f64,
}

impl Default for PrepareOptions {
    fn default() -> Self {
        PrepareOptions {
            encode: EncodeOptions { max_steps: 25, max_traces: 12 },
            paths: PathConfig::default(),
            train_frac: 0.75,
        }
    }
}

fn blend_ordered(
    program: &Program,
    groups: &[trace::PathGroup],
    concrete: usize,
) -> (Vec<BlendedTrace>, usize) {
    let order = reduction_order(program, groups);
    let min_cover = randgen::min_line_cover(program, groups).len();
    let blended = order
        .iter()
        .filter_map(|&i| groups[i].blend(concrete).ok())
        .collect();
    (blended, min_cover)
}

/// Prepares the method-name dataset from a generated corpus.
pub fn prepare_method_dataset<R: Rng + ?Sized>(
    corpus: &MethodCorpus,
    opts: &PrepareOptions,
    concrete_per_path: usize,
    rng: &mut R,
) -> MethodDataset {
    let _span = obs::span!("eval.prepare");
    let split = datagen::split_indices(corpus.samples.len(), opts.train_frac, 0.0, rng);

    // Pass 1: vocabularies from the training split.
    let mut vocabs = MethodVocabs {
        input: Vocab::new(),
        output: OutVocab::new(),
        terms: Vocab::new(),
        paths: Vocab::new(),
        subtokens: Vocab::new(),
        nodes: Vocab::new(),
        name_labels: Vocab::new(),
    };
    let blended_cache: Vec<(Vec<BlendedTrace>, usize)> =
        par::par_map_ordered(&corpus.samples, |_, sample| {
            blend_ordered(&sample.program, &sample.groups, concrete_per_path)
        });
    for &i in &split.train {
        let sample = &corpus.samples[i];
        let (blended, _) = &blended_cache[i];
        program_into_vocab(&sample.program, blended, &mut vocabs.input, &opts.encode);
        names_into_vocab(&sample.program, &mut vocabs.input);
        for t in minilang::subtokens(&sample.name) {
            vocabs.output.add(&t);
        }
        vocabs.name_labels.add(&sample.name);
        contexts_into_vocabs(&sample.program, &opts.paths, &mut vocabs.terms, &mut vocabs.paths);
        code2seq_vocabs(&sample.program, &opts.paths, &mut vocabs.subtokens, &mut vocabs.nodes);
    }

    // Pass 2: encode every sample against the frozen vocabularies.
    let dypro_opts = DyproOptions {
        max_steps: opts.encode.max_steps,
        max_traces: opts.encode.max_traces * concrete_per_path,
    };
    let prepare = |i: usize| -> PreparedMethod {
        let sample = &corpus.samples[i];
        let (blended, min_cover) = blended_cache[i].clone();
        let liger = encode_program(&sample.program, &blended, &vocabs.input, &opts.encode);
        let dypro = dypro_input(&sample.program, &blended, &vocabs.input, &dypro_opts);
        let contexts = baselines::extract_path_contexts(&sample.program, &opts.paths);
        let c2v = code2vec_input(&contexts, &vocabs.terms, &vocabs.paths);
        let c2s = code2seq_input(&contexts, &vocabs.subtokens, &vocabs.nodes);
        PreparedMethod {
            subtokens: minilang::subtokens(&sample.name),
            target: vocabs.output.encode_name(&sample.name),
            name_label: vocabs.name_labels.get(&sample.name),
            name: sample.name.clone(),
            program: sample.program.clone(),
            blended,
            liger,
            dypro,
            c2v,
            c2s,
            min_cover,
        }
    };
    let train: Vec<PreparedMethod> = par::par_map_ordered(&split.train, |_, &i| prepare(i));
    let test: Vec<PreparedMethod> = par::par_map_ordered(&split.test, |_, &i| prepare(i));
    MethodDataset { vocabs, train, test }
}

/// Prepares the classification dataset from a generated COSET-like corpus.
pub fn prepare_coset_dataset<R: Rng + ?Sized>(
    corpus: &CosetCorpus,
    opts: &PrepareOptions,
    concrete_per_path: usize,
    rng: &mut R,
) -> CosetDataset {
    let _span = obs::span!("eval.prepare");
    let split = datagen::split_indices(corpus.samples.len(), opts.train_frac, 0.0, rng);
    let mut vocab = Vocab::new();
    let blended_cache: Vec<(Vec<BlendedTrace>, usize)> =
        par::par_map_ordered(&corpus.samples, |_, sample| {
            blend_ordered(&sample.program, &sample.groups, concrete_per_path)
        });
    for &i in &split.train {
        let sample = &corpus.samples[i];
        program_into_vocab(&sample.program, &blended_cache[i].0, &mut vocab, &opts.encode);
        names_into_vocab(&sample.program, &mut vocab);
    }
    let dypro_opts = DyproOptions {
        max_steps: opts.encode.max_steps,
        max_traces: opts.encode.max_traces * concrete_per_path,
    };
    let prepare = |i: usize| -> PreparedCoset {
        let sample = &corpus.samples[i];
        let (blended, min_cover) = blended_cache[i].clone();
        PreparedCoset {
            label: sample.label,
            liger: encode_program(&sample.program, &blended, &vocab, &opts.encode),
            dypro: dypro_input(&sample.program, &blended, &vocab, &dypro_opts),
            program: sample.program.clone(),
            blended,
            min_cover,
        }
    };
    let train: Vec<PreparedCoset> = par::par_map_ordered(&split.train, |_, &i| prepare(i));
    let test: Vec<PreparedCoset> = par::par_map_ordered(&split.test, |_, &i| prepare(i));
    CosetDataset { vocab, num_classes: datagen::Strategy::ALL.len(), train, test }
}

/// Re-encodes a prepared method sample at a reduced number of concrete
/// traces per path (§6.1.2, Figure 6a/6b).
pub fn method_at_concrete(
    sample: &PreparedMethod,
    vocab: &Vocab,
    opts: &EncodeOptions,
    concrete: usize,
) -> (EncodedProgram, DyproProgram) {
    let reduced: Vec<BlendedTrace> =
        sample.blended.iter().map(|b| b.with_concrete_limit(concrete)).collect();
    let liger = encode_program(&sample.program, &reduced, vocab, opts);
    let dypro_opts =
        DyproOptions { max_steps: opts.max_steps, max_traces: opts.max_traces * concrete };
    let dypro = dypro_input(&sample.program, &reduced, vocab, &dypro_opts);
    (liger, dypro)
}

/// Re-encodes a prepared method sample at a reduced number of symbolic
/// traces (paths), preserving line coverage for any count ≥ `min_cover`
/// (§6.1.2, Figure 6c/6d). Also limits concrete traces to `concrete`.
pub fn method_at_paths(
    sample: &PreparedMethod,
    vocab: &Vocab,
    opts: &EncodeOptions,
    paths: usize,
    concrete: usize,
) -> (EncodedProgram, DyproProgram) {
    let reduced: Vec<BlendedTrace> = sample
        .blended
        .iter()
        .take(paths.max(1))
        .map(|b| b.with_concrete_limit(concrete))
        .collect();
    let liger = encode_program(&sample.program, &reduced, vocab, opts);
    let dypro_opts =
        DyproOptions { max_steps: opts.max_steps, max_traces: opts.max_traces * concrete };
    let dypro = dypro_input(&sample.program, &reduced, vocab, &dypro_opts);
    (liger, dypro)
}

/// The classification-task analogue of [`method_at_paths`].
pub fn coset_at(
    sample: &PreparedCoset,
    vocab: &Vocab,
    opts: &EncodeOptions,
    paths: usize,
    concrete: usize,
) -> (EncodedProgram, DyproProgram) {
    let reduced: Vec<BlendedTrace> = sample
        .blended
        .iter()
        .take(paths.max(1))
        .map(|b| b.with_concrete_limit(concrete))
        .collect();
    let liger = encode_program(&sample.program, &reduced, vocab, opts);
    let dypro_opts =
        DyproOptions { max_steps: opts.max_steps, max_traces: opts.max_traces * concrete };
    let dypro = dypro_input(&sample.program, &reduced, vocab, &dypro_opts);
    (liger, dypro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_method_corpus, CorpusConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_corpus() -> MethodCorpus {
        let mut rng = StdRng::seed_from_u64(600);
        let config = CorpusConfig {
            variants_per_family: 1,
            defect_prob: 0.0,
            gen: randgen::GenConfig {
                target_paths: 4,
                concrete_per_path: 3,
                max_attempts: 150,
                ..randgen::GenConfig::default()
            },
            ..CorpusConfig::default()
        };
        generate_method_corpus(&config, &mut rng, None).unwrap()
    }

    #[test]
    fn prepared_dataset_is_complete() {
        let corpus = tiny_corpus();
        let mut rng = StdRng::seed_from_u64(601);
        let ds = prepare_method_dataset(&corpus, &PrepareOptions::default(), 3, &mut rng);
        assert!(!ds.train.is_empty() && !ds.test.is_empty());
        assert_eq!(ds.train.len() + ds.test.len(), corpus.samples.len());
        for s in ds.train.iter().chain(&ds.test) {
            assert!(!s.target.is_empty());
            assert!(!s.liger.traces.is_empty());
            assert!(!s.dypro.traces.is_empty());
            assert!(s.min_cover >= 1 && s.min_cover <= s.blended.len());
            assert!(!s.subtokens.is_empty());
        }
        assert!(ds.vocabs.input.len() > 10);
        assert!(!ds.vocabs.output.is_empty());
    }

    #[test]
    fn concrete_reduction_shrinks_states() {
        let corpus = tiny_corpus();
        let mut rng = StdRng::seed_from_u64(602);
        let opts = PrepareOptions::default();
        let ds = prepare_method_dataset(&corpus, &opts, 3, &mut rng);
        let sample = &ds.train[0];
        let (liger1, dypro1) =
            method_at_concrete(sample, &ds.vocabs.input, &opts.encode, 1);
        for t in &liger1.traces {
            for step in &t.steps {
                assert_eq!(step.states.len(), 1);
            }
        }
        assert!(dypro1.traces.len() <= sample.dypro.traces.len());
    }

    #[test]
    fn path_reduction_keeps_prefix() {
        let corpus = tiny_corpus();
        let mut rng = StdRng::seed_from_u64(603);
        let opts = PrepareOptions::default();
        let ds = prepare_method_dataset(&corpus, &opts, 3, &mut rng);
        let sample = ds
            .train
            .iter()
            .find(|s| s.blended.len() >= 2)
            .expect("some sample has multiple paths");
        let (liger, _) = method_at_paths(sample, &ds.vocabs.input, &opts.encode, 1, 3);
        assert_eq!(liger.traces.len(), 1);
    }
}
