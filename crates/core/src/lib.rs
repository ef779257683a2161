//! # liger — blended, precise semantic program embeddings
//!
//! The primary contribution of *Blended, Precise Semantic Program
//! Embeddings* (Wang & Su, PLDI 2020), reproduced in Rust: a deep neural
//! network that learns program representations from **blended traces** —
//! symbolic traces (the statements along a program path) paired with the
//! concrete program states several executions of that path produce.
//!
//! The crate implements the full Figure 5 architecture:
//!
//! - [`Vocab`] / [`OutVocab`] — the shared input vocabulary 𝒟ₛ ∪ 𝒟_d and
//!   the method-name sub-token vocabulary,
//! - [`encode_program`] — turning [`trace::BlendedTrace`]s into the
//!   model-ready structured input,
//! - [`LigerModel`] — the four-layer encoder (vocabulary embedding →
//!   attention fusion → executions embedding → max-pooled program
//!   embedding), with the §6.3 ablation switches,
//! - [`NameDecoder`] / [`LigerNamer`] — the attentive decoder for method
//!   name prediction (§6.1),
//! - [`LigerClassifier`] — the classification head for COSET-style
//!   semantics classification (§6.2),
//! - [`train_namer`] / [`train_classifier`] — Adam training loops.
//!
//! # Examples
//!
//! Train LIGER to name a method from its traces:
//!
//! ```
//! use liger::{
//!     encode_program, program_into_vocab, EncodeOptions, LigerConfig, LigerNamer,
//!     NameSample, OutVocab, TrainConfig, Vocab,
//! };
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = minilang::parse(
//!     "fn doubleIt(x: int) -> int { x *= 2; return x; }",
//! )?;
//! // Collect traces (here: two concrete runs of the single path).
//! let traces: Vec<trace::ExecutionTrace> = [2, 9]
//!     .into_iter()
//!     .map(|x| {
//!         let inputs = vec![interp::Value::Int(x)];
//!         let run = interp::run(&program, &inputs)?;
//!         Ok(trace::ExecutionTrace::from_run(inputs, run))
//!     })
//!     .collect::<Result<_, interp::RuntimeError>>()?;
//! let blended: Vec<trace::BlendedTrace> = trace::group_by_path(traces)
//!     .iter()
//!     .map(|g| g.blend(5))
//!     .collect::<Result<_, _>>()?;
//!
//! // Build vocabularies and the model-ready encoding.
//! let opts = EncodeOptions::default();
//! let mut vocab = Vocab::new();
//! program_into_vocab(&program, &blended, &mut vocab, &opts);
//! let mut out_vocab = OutVocab::new();
//! out_vocab.add("double");
//! out_vocab.add("it");
//! let encoded = encode_program(&program, &blended, &vocab, &opts);
//!
//! // Train.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = tensor::ParamStore::new();
//! let cfg = LigerConfig { hidden: 8, attn: 8, ..LigerConfig::default() };
//! let namer = LigerNamer::new(&mut store, vocab.len(), out_vocab.len(), cfg, &mut rng);
//! let samples = vec![NameSample {
//!     program: encoded.clone(),
//!     target: out_vocab.encode_name("doubleIt"),
//! }];
//! let tc = TrainConfig { epochs: 25, lr: 0.05, batch_size: 1 };
//! liger::train_namer(&namer, &mut store, &samples, &tc, &mut rng);
//!
//! let predicted = out_vocab.decode_name(&namer.predict(&store, &encoded));
//! assert_eq!(predicted, vec!["double", "it"]);
//! # Ok(())
//! # }
//! ```

pub mod bundle;
pub mod canon_memo;
pub mod classifier;
pub mod decoder;
pub mod encode;
pub mod infer;
pub mod model;
pub mod qencode;
pub mod train;
pub mod vocab;

pub use bundle::{BundleError, BundleHead, ModelBundle};
pub use canon_memo::{canon_key, CanonEncoded, CanonEncoder, CanonKey};
pub use classifier::{argmax, LigerClassifier};
pub use decoder::NameDecoder;
pub use encode::{
    encode_program, encode_tree, encode_tree_in, program_into_vocab, tree_into_vocab,
    tree_into_vocab_in, EncBlended, EncBlendedRef, EncPool, EncState, EncStep, EncStepRef,
    EncTree, EncVar, EncodeOptions, EncodedProgram, ObjId, PoolVar, StateId, StateNode,
    TreeId, TreeNode,
};
pub use infer::{
    extract_encoded, vocab_from_sources, ExtractError, ExtractOptions, Inferencer, LigerTask,
};
pub use model::{Ablation, EncoderOutput, LigerConfig, LigerModel, Workspace};
pub use qencode::{Encoding, Engine};
pub use train::{
    train_classifier, train_classifier_with, train_namer, train_namer_with, ClassSample,
    EncodeMode, LigerNamer, NameSample, TrainConfig,
};
pub use vocab::{OutVocab, TokenId, Vocab, EOS, SOS, UNK};
