//! Single-shot inference: query a trained model without constructing a
//! trainer.
//!
//! Training code owns the `ParamStore` mutably and drives epochs on the
//! autodiff tape; inference ([`crate::bundle::ModelBundle`] →
//! [`Inferencer`]) only ever *reads* parameters, and every forward-only
//! entry point runs the tape-free [`crate::qencode::Engine`]. This module
//! is the thin read-only surface the `liger-serve` service and the
//! examples build on:
//!
//! - [`ExtractOptions`] / [`extract_encoded`] — MiniLang source →
//!   [`EncodedProgram`], running the feedback-directed generator with a
//!   fixed seed so the same source always produces the same blended
//!   traces (and therefore a bit-reproducible embedding);
//! - [`LigerTask`] — a trained encoder plus its task head (namer or
//!   classifier);
//! - [`Inferencer`] — task + vocabulary + trained f32 parameters,
//!   shared read-only by any number of threads.
//!
//! The engine is bitwise identical to the tape's `LigerModel::encode`
//! and `LigerNamer::predict` (DESIGN.md §2f), so served results equal the
//! training-time forward pass for every batch composition.

use crate::bundle::{BundleError, ModelBundle};
use crate::encode::{encode_program, EncodeOptions, EncodedProgram};
use crate::model::{LigerModel, Workspace};
use crate::qencode::Engine;
use crate::train::LigerNamer;
use crate::vocab::{OutVocab, Vocab};
use crate::LigerClassifier;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::ParamStore;

/// How MiniLang source is turned into blended traces at inference time.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractOptions {
    /// Target number of distinct program paths to collect.
    pub target_paths: usize,
    /// Concrete executions kept per path.
    pub concrete_per_path: usize,
    /// Maximum concrete traces blended per path.
    pub max_concrete: usize,
    /// Encoding bounds (steps/traces kept).
    pub encode: EncodeOptions,
    /// Seed of the feedback-directed generator. Fixed by default so a
    /// given source string always produces the same encoded program.
    pub seed: u64,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            target_paths: 6,
            concrete_per_path: 3,
            max_concrete: 3,
            encode: EncodeOptions::default(),
            seed: 0x11_6e7,
        }
    }
}

/// Why a source program could not be turned into an encoded program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The source failed to parse or type-check.
    Frontend(String),
    /// No input produced a successful execution, so there is nothing to
    /// blend (the paper's "Randoop does not have access" category).
    NoTraces,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::Frontend(msg) => write!(f, "{msg}"),
            ExtractError::NoTraces => write!(f, "no successful executions to blend"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// MiniLang source → model-ready [`EncodedProgram`], deterministically.
///
/// Parses, type-checks, collects concrete executions with the
/// feedback-directed generator (seeded from `opts.seed`), groups them by
/// path, blends, and encodes against `vocab`.
///
/// # Errors
///
/// Returns [`ExtractError`] when the frontend rejects the source or no
/// execution succeeds.
pub fn extract_encoded(
    source: &str,
    vocab: &Vocab,
    opts: &ExtractOptions,
) -> Result<EncodedProgram, ExtractError> {
    let (program, blended) = blended_traces(source, opts)?;
    Ok(encode_program(&program, &blended, vocab, &opts.encode))
}

/// Builds an input vocabulary covering `sources` by tracing each one the
/// same way [`extract_encoded`] will. Used to bootstrap a model for a
/// known corpus (e.g. the `liger-serve --demo` trainer).
///
/// The sources are traced on the [`par`] pool and folded into the
/// vocabulary in source order, so the result is the same at every
/// thread count.
///
/// # Errors
///
/// Returns [`ExtractError`] for the first source (in order) that cannot
/// be traced.
pub fn vocab_from_sources<S: AsRef<str> + Sync>(
    sources: &[S],
    opts: &ExtractOptions,
) -> Result<Vocab, ExtractError> {
    let traced = par::par_map_ordered(sources, |_, source| blended_traces(source.as_ref(), opts));
    let mut vocab = Vocab::new();
    for result in traced {
        let (program, blended) = result?;
        crate::encode::program_into_vocab(&program, &blended, &mut vocab, &opts.encode);
    }
    Ok(vocab)
}

/// Shared frontend + tracing pipeline: parse, type-check, generate
/// concrete executions, group by path, blend.
fn blended_traces(
    source: &str,
    opts: &ExtractOptions,
) -> Result<(minilang::Program, Vec<trace::BlendedTrace>), ExtractError> {
    let program =
        minilang::parse(source).map_err(|e| ExtractError::Frontend(e.to_string()))?;
    minilang::typecheck(&program).map_err(|e| ExtractError::Frontend(e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let gen = randgen::GenConfig {
        target_paths: opts.target_paths,
        concrete_per_path: opts.concrete_per_path,
        ..randgen::GenConfig::default()
    };
    let (groups, _stats) = randgen::generate_grouped(&program, &gen, &mut rng);
    let blended: Vec<trace::BlendedTrace> =
        groups.iter().filter_map(|g| g.blend(opts.max_concrete).ok()).collect();
    if blended.is_empty() {
        return Err(ExtractError::NoTraces);
    }
    Ok((program, blended))
}

/// A trained encoder plus its task head, detached from any store: the
/// read-only model object inference workers share.
#[derive(Debug, Clone)]
pub enum LigerTask {
    /// Method-name prediction (encoder + attentive decoder).
    Namer {
        /// The trained namer.
        namer: LigerNamer,
        /// The output (sub-token) vocabulary.
        out: OutVocab,
    },
    /// Semantics classification (encoder + linear head).
    Classifier {
        /// The trained classifier.
        cls: LigerClassifier,
        /// Class-label display names (index = class id).
        labels: Vec<String>,
    },
}

impl LigerTask {
    /// The shared encoder.
    pub fn model(&self) -> &LigerModel {
        match self {
            LigerTask::Namer { namer, .. } => &namer.model,
            LigerTask::Classifier { cls, .. } => &cls.model,
        }
    }

    /// The program embedding 𝓗_P for one program, through the engine.
    /// `_ws` is unused: inference runs tape-free, and the parameter only
    /// keeps the signature callers already use.
    pub fn embed_in(
        &self,
        _ws: &mut Workspace,
        store: &ParamStore,
        prog: &EncodedProgram,
    ) -> Vec<f32> {
        Engine::new(store).embed(self.model(), prog)
    }

    /// Program embeddings for a whole minibatch through the batch-major
    /// engine. Each is bitwise identical to its
    /// [`LigerTask::embed_in`] result. `_ws` is unused, as there.
    pub fn embed_batch_in(
        &self,
        _ws: &mut Workspace,
        store: &ParamStore,
        progs: &[&EncodedProgram],
    ) -> Vec<Vec<f32>> {
        Engine::new(store).embed_batch(self.model(), progs)
    }

    /// Predicted method-name sub-tokens through the engine; `None`
    /// for classifier bundles. `_ws` is unused, as in
    /// [`LigerTask::embed_in`].
    pub fn name_in(
        &self,
        _ws: &mut Workspace,
        store: &ParamStore,
        prog: &EncodedProgram,
    ) -> Option<Vec<String>> {
        self.name_with(store, prog)
    }

    /// [`LigerTask::name_in`] without the workspace.
    fn name_with(&self, store: &ParamStore, prog: &EncodedProgram) -> Option<Vec<String>> {
        match self {
            LigerTask::Namer { namer, out } => {
                Some(out.decode_name(&Engine::new(store).name(namer, prog)))
            }
            LigerTask::Classifier { .. } => None,
        }
    }

    /// Predicted class id and display label; `None` for namer bundles.
    fn classify_with(&self, store: &ParamStore, prog: &EncodedProgram) -> Option<(usize, String)> {
        match self {
            LigerTask::Namer { .. } => None,
            LigerTask::Classifier { cls, labels } => {
                let class = Engine::new(store).classify(cls, prog);
                let label = labels
                    .get(class)
                    .cloned()
                    .unwrap_or_else(|| format!("class{class}"));
                Some((class, label))
            }
        }
    }
}

/// Everything a caller needs to query a trained model: the task, the
/// input vocabulary, and the trained f32 parameters. Every method takes
/// `&self` and builds a tape-free engine borrowing the parameters, so one
/// inferencer serves any number of threads without copying them.
#[derive(Debug)]
pub struct Inferencer {
    /// The trained model + head.
    pub task: LigerTask,
    /// The input vocabulary the model was trained against.
    pub vocab: Vocab,
    store: ParamStore,
}

impl Inferencer {
    /// Builds an inferencer from a checkpoint bundle.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError`] when the bundle's parameters do not match
    /// its declared architecture.
    pub fn from_bundle(bundle: &ModelBundle) -> Result<Inferencer, BundleError> {
        let (task, store) = bundle.instantiate()?;
        Ok(Inferencer { task, vocab: bundle.vocab.clone(), store })
    }

    /// Encodes MiniLang source against this model's vocabulary.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractError`] when the source cannot be executed.
    pub fn encode_source(
        &self,
        source: &str,
        opts: &ExtractOptions,
    ) -> Result<EncodedProgram, ExtractError> {
        extract_encoded(source, &self.vocab, opts)
    }

    /// Program embeddings 𝓗_P for a minibatch, batch-major.
    pub fn embed_batch(&self, progs: &[&EncodedProgram]) -> Vec<Vec<f32>> {
        Engine::new(&self.store).embed_batch(self.task.model(), progs)
    }

    /// The program embedding 𝓗_P.
    pub fn embed(&self, prog: &EncodedProgram) -> Vec<f32> {
        self.embed_batch(&[prog]).pop().expect("one embedding per program")
    }

    /// Predicted method-name sub-tokens; `None` for classifier bundles.
    pub fn name(&self, prog: &EncodedProgram) -> Option<Vec<String>> {
        self.task.name_with(&self.store, prog)
    }

    /// Predicted class id and label; `None` for namer bundles.
    pub fn classify(&self, prog: &EncodedProgram) -> Option<(usize, String)> {
        self.task.classify_with(&self.store, prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{EncBlended, EncState, EncStep, EncTree, EncVar};
    use crate::model::LigerConfig;
    use crate::train::{train_namer, NameSample, TrainConfig};
    use crate::vocab::EOS;
    use tensor::Graph;

    fn prog(token: usize) -> EncodedProgram {
        EncodedProgram::from_traces(vec![EncBlended {
            steps: vec![EncStep {
                tree: EncTree { token, children: vec![] },
                states: vec![EncState { vars: vec![EncVar::Primitive(token + 1)] }],
            }],
        }])
    }

    fn tokens(v: &Vocab) -> Vec<String> {
        (0..v.len()).map(|i| v.token(i).to_string()).collect()
    }

    #[test]
    fn vocab_tracing_is_the_serial_fold_at_every_thread_count() {
        let opts = ExtractOptions::default();
        let sources = [
            "fn addOne(x: int) -> int { return x + 1; }",
            "fn signOf(x: int) -> int { if (x > 0) { return 1; } if (x < 0) { return 0 - 1; } return 0; }",
            "fn sumTo(n: int) -> int { let s: int = 0; for (let i: int = 1; i <= n; i += 1) { s += i; } return s; }",
            "fn first(a: array<int>) -> int { if (len(a) == 0) { return 0; } return a[0]; }",
            "fn greet(s: str) -> str { return \"hi \" + s; }",
        ];
        let mut serial = Vocab::new();
        for src in &sources {
            let (program, blended) = blended_traces(src, &opts).unwrap();
            crate::encode::program_into_vocab(&program, &blended, &mut serial, &opts.encode);
        }
        // The first failing source in order wins, whichever worker ran it.
        let crash = "fn f(x: int) -> int { return 1 / (x - x); }";
        let failing = [sources[0], crash, "fn broken(", sources[1]];
        for threads in [1, 2] {
            par::set_threads(Some(threads));
            let got = vocab_from_sources(&sources, &opts).unwrap();
            assert_eq!(tokens(&got), tokens(&serial), "{threads} threads");
            assert_eq!(vocab_from_sources(&failing, &opts).unwrap_err(), ExtractError::NoTraces);
            par::set_threads(None);
        }
    }

    #[test]
    fn extract_is_deterministic_and_validates_source() {
        let vocab = Vocab::new();
        let opts = ExtractOptions::default();
        let src = "fn addOne(x: int) -> int { return x + 1; }";
        let a = extract_encoded(src, &vocab, &opts).unwrap();
        let b = extract_encoded(src, &vocab, &opts).unwrap();
        assert_eq!(a, b, "same source + seed must encode identically");
        assert!(a.total_steps() > 0);

        assert!(matches!(
            extract_encoded("fn broken(", &vocab, &opts),
            Err(ExtractError::Frontend(_))
        ));
        assert!(matches!(
            extract_encoded("fn bad(x: int) -> int { return y; }", &vocab, &opts),
            Err(ExtractError::Frontend(_))
        ));
    }

    #[test]
    fn task_embedding_matches_the_tape_encoder() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = LigerConfig { hidden: 6, attn: 6, ..LigerConfig::default() };
        let mut out = OutVocab::new();
        for t in ["get", "set", "max", "min", "sum"] {
            out.add(t);
        }
        let namer = LigerNamer::new(&mut store, 12, out.len(), cfg, &mut rng);
        let samples = vec![NameSample { program: prog(1), target: vec![4, EOS] }];
        train_namer(
            &namer,
            &mut store,
            &samples,
            &TrainConfig { epochs: 3, lr: 0.02, batch_size: 1 },
            &mut rng,
        );

        let task = LigerTask::Namer { namer, out: out.clone() };
        let mut ws = Workspace::new();
        let served = task.embed_in(&mut ws, &store, &prog(1));
        let mut g = Graph::new();
        let reference = namer.model.encode(&mut g, &store, &prog(1));
        let ref_bits: Vec<u32> =
            g.value(reference.program).data().iter().map(|v| v.to_bits()).collect();
        let served_bits: Vec<u32> = served.iter().map(|v| v.to_bits()).collect();
        assert_eq!(served_bits, ref_bits);
        let want = out.decode_name(&namer.predict(&store, &prog(1)));
        assert_eq!(task.name_in(&mut ws, &store, &prog(1)), Some(want));

        let mut vocab = Vocab::new();
        for i in 1..12 {
            vocab.add(&format!("t{i}"));
        }
        let bundle = ModelBundle::for_namer(cfg, vocab, out, store);
        let inf = Inferencer::from_bundle(&bundle).unwrap();
        assert_eq!(inf.embed(&prog(1)), served);
        assert!(inf.classify(&prog(1)).is_none());
    }
}
